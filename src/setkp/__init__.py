"""Set-prediction keyphrase generation with keyword-guided calibration,
multi-level document portraits, and downstream classification analysis.

Importing the package pins OpenBLAS to one thread, whatever thread count
the environment sets. The model's products are a few hundred rows by 64
columns, and on small hosts OpenBLAS's thread hand-off costs more than such
a product; some weight-gradient products also round differently at another
thread count, so one count keeps every artifact's bytes. OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only when numpy loads, so the package also sets the
count through the setter of the OpenBLAS that numpy loaded, which holds
when numpy was imported first.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .corpus import MultiLevelDocument, Vocabulary, tokenize
from .model import Model, ModelConfig
from .training import TsmtConfig, tsmt_train


def _pin_loaded_openblas() -> None:
    """Set the thread count of numpy's own OpenBLAS (the copy in
    ``numpy.libs`` of a wheel) to 1 through its exported setter; a numpy
    that links another BLAS keeps its count."""
    import ctypes
    from pathlib import Path

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))  # the already loaded copy
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(handle, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


_pin_loaded_openblas()

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
