"""Gaussian separability thresholds, LOCC synthesis, and dense cross-checks."""

__version__ = "0.1.0"
