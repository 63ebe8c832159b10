"""Mini-batched stochastic prox-linear method for rank-one matrix sensing:
simulation, deterministic trajectory prediction, and offline hyperparameter
tuning."""

__version__ = "0.1.0"
