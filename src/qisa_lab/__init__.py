"""Character-level language modeling lab with swappable self-attention.

Six attention mechanisms behind one interface: classical scaled
dot-product (csa), quantum-inspired congruence values (qisa), an
ansatz-based variant (qisa_a), and three measurement-based networks
(qsann, qsann_v1, qsann_v2), all trained with the same tape-based
autodiff engine and servable through an evolved-observable cache.
"""

import os as _os

__version__ = "0.1.0"

# QISA_LAB_THREADS caps the BLAS thread pools.  They read their size once,
# when numpy loads, so the cap is applied before the first submodule import.
if _cap := _os.environ.get("QISA_LAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .attention import AttentionSpec, VARIANTS, causal_mask, count_params  # noqa: E402,F401
from .data import Vocab, build_vocab, load_corpus, split_dataset  # noqa: E402,F401
from .metrics import cer, levenshtein, wer  # noqa: E402,F401
from .model import LanguageModel, ModelConfig  # noqa: E402,F401
from .tensor import Tensor, no_grad  # noqa: E402,F401
from .training import Adam, TrainConfig, evaluate_ce, evaluate_cer_wer, generate, train  # noqa: E402,F401
