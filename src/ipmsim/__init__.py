"""Fiber Mach-Zehnder polarization modulator model and decoy-state BB84
key-rate simulator; the ``ipmsim`` command is ``ipmsim.cli``."""

__version__ = "0.1.0"
