"""Fleet maintenance analytics toolkit.

Builds labeled job-count tensors from vehicle/maintenance event logs,
factorizes them with CP-ALS (PARAFAC), mines make/model-specific repair
sequences with a two-proportion z-test, and trains a from-scratch LSTM
next-job predictor evaluated by per-item perplexity.
"""

__version__ = "0.1.0"

from .tensor import Tensor3

__all__ = ["Tensor3", "__version__"]
