"""Deterministic workbench for screw fastening/unfastening: physical
simulation with cam-out slippage, a force/torque controller, and the
signal analysis used to extract the force law from recordings.

Each public name is imported from the submodule that defines it, as in
`from screwbench.runner import run_scenario`; the README's module map
lists them. Importing the package loads no submodule.
"""

__version__ = "0.1.0"
