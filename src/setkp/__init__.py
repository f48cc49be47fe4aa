"""Set-prediction keyphrase generation with keyword-guided calibration,
multi-level document portraits, and downstream classification analysis.

Importing the package pins OpenBLAS to one thread unless one of
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set.
The model's products are a few hundred rows by 64 columns, and on small
hosts OpenBLAS's thread hand-off costs more than such a product. OpenBLAS
reads the variable when numpy loads, so the pin holds only when ``setkp`` is
imported before numpy, as the ``setkp`` command does.
"""

import os

if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .corpus import MultiLevelDocument, Vocabulary, tokenize
from .model import Model, ModelConfig
from .training import TsmtConfig, tsmt_train

__all__ = [
    "Model",
    "ModelConfig",
    "MultiLevelDocument",
    "TsmtConfig",
    "Vocabulary",
    "tokenize",
    "tsmt_train",
    "__version__",
]
