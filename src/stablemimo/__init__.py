"""Space-time coded MIMO simulation and analysis under alpha-stable noise."""

__version__ = "0.1.0"
