"""Training-free transformer inference with repositionable, prunable KV caches.

Pieces: rotary-embedding math (rope), a minimal decoder-only transformer with
explicit caches (model), offline query-independent cache construction and
persistence (cache_store), BM25 retrieval (retrieval), the position-planning
and pruning pipeline (focus), the answer modes and benchmark harness (bench),
and the command line (cli).
"""

from .cache_store import (
    CacheStore,
    CacheStoreEntry,
    StaleCacheError,
    build_document_cache,
    build_prefix_cache,
)
from .focus import (
    AllocationPlan,
    Pipeline,
    PruningSchedule,
    PruningState,
    compute_n_reuse,
    final_reposition,
    plan_positions,
    prefill_with_pruning,
    run_full_context,
)
from .model import (
    CapacityError,
    CostMeter,
    KVCache,
    LayerCache,
    Model,
    ModelConfig,
    make_config,
)
from .retrieval import InvertedIndex, index_corpus, load_index, save_index, search
from .rope import RopeConfig
from .tokenizer import ByteTokenizer

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "ByteTokenizer",
    "CacheStore",
    "CacheStoreEntry",
    "CapacityError",
    "CostMeter",
    "InvertedIndex",
    "KVCache",
    "LayerCache",
    "Model",
    "ModelConfig",
    "Pipeline",
    "PruningSchedule",
    "PruningState",
    "RopeConfig",
    "StaleCacheError",
    "build_document_cache",
    "build_prefix_cache",
    "compute_n_reuse",
    "final_reposition",
    "index_corpus",
    "load_index",
    "make_config",
    "plan_positions",
    "prefill_with_pruning",
    "run_full_context",
    "save_index",
    "search",
    "__version__",
]
