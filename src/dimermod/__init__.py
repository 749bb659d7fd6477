"""Cluster modular groups of dimer integrable systems, with exact arithmetic."""

__version__ = "0.1.0"


class DimermodError(ValueError):
    """Base of the errors a bad input raises; the CLI reports each with exit code 2."""
