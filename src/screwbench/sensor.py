"""The force/torque sensor's sample rate and noise defaults, the count of
sample periods in a duration, and the cam-out rule read from its torque,
the one home of each. Imports nothing:
`scenario` takes its period, noise and detector defaults from here, and
`analysis` reads them without loading the run settings.
"""

SAMPLE_HZ = 100  # Hz, the fixed sample rate of sensor, model and controller
DT = 1 / SAMPLE_HZ  # s, the sample period
FORCE_NOISE_STD = 0.1  # N, default axial force noise std
TORQUE_NOISE_STD = 0.003  # N·m, default torque noise std
NOISE_FLOOR = 0.01  # N·m, default torque treated as zero below this
THETA_SLIP = 0.5  # default torque-drop fraction for cam-out detection
CAMOUT_WINDOW = 30  # default samples in the torque moving window


def periods(seconds):
    """The whole sample periods a run counts in `seconds`: the nearest
    count, at least one. `OverflowError` if that count is not finite."""
    return max(1, round(seconds / DT))


def camout(peak, latest, noise_floor, theta_slip):
    """The cam-out rule, on floats or numpy arrays alike."""
    return (peak > noise_floor) & (latest < theta_slip * peak)
