"""Invariant distributions of ergodic diffusions via decreasing-step
weighted empirical measures, with weak-order-one (Euler) and weak-order-two
kernels and an experiment harness for the associated central limit regimes.

The package re-exports nothing: import the submodules (``ergostep.schemes``,
``ergostep.harness``, ``ergostep.model``, ...)."""

__version__ = "0.1.0"
