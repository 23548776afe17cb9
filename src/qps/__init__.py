"""Amplitude-based quantum Poisson solver for the 1D Dirichlet problem."""

__version__ = "0.1.0"
