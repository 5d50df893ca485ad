"""The force/torque sensor's sample rate and noise defaults, the one home of
each. Constants only, importing nothing: `scenario.SimParams` takes its
period and noise defaults from here, and `analysis` reads them without
loading the run settings.
"""

SAMPLE_HZ = 100  # Hz, the fixed sample rate of sensor, model and controller
DT = 1 / SAMPLE_HZ  # s, the sample period
FORCE_NOISE_STD = 0.1  # N, default axial force noise std
TORQUE_NOISE_STD = 0.003  # N·m, default torque noise std
