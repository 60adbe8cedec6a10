"""The cache-focused inference pipeline.

Given a query, the pipeline retrieves document caches, plans where their keys
sit inside the model's positional encoding range, runs the query through the
layers while accumulating per-document attention mass and pruning the weakest
caches on a fixed layer schedule, compacts the survivors next to the query,
and hands the assembled cache to greedy decoding.

Position planning: with usable capacity for C caches of length l each, k
caches need ceil(k / C) groups; groups reuse the identical position range
(parallel windows) while caches within a group sit sequentially. Ranks are
dealt round-robin over groups so every reused range carries a similar
relevance profile.

Pruning: document scores start at zero and accumulate layer by layer; at
every interval-th layer the lowest-scoring caches are dropped. The per-event
removal count is (k - k_finish) divided by the number of events, floored,
and the final event keeps exactly k_finish caches. The whole schedule is one
table, fixed when the query starts, of the caches kept after each event.

Context assembly: one helper lays out a layer's context as the prefix, then
each cache with its keys rotated to its target positions, then the query,
and returns the column block it gave each cache. This module alone decides
that layout, always in float64 buffers that hold float32-rounded values. At
every layer pre-fill lays out the prefix and the caches still alive there,
so a pruned cache is never rotated again; the model appends the query's rows
to the same buffer and attends over it in place, and a document's attention
mass is a sum of the float32 map over the block the layout placed it in.
A layer whose pre-fill layout is already its decode layout (strategy none,
no prune event after it, and tokens left to decode) is laid out straight
into its own decode buffer, with room for the tokens still to come; the
other layers refill one shared buffer. Final allocation builds only those
other layers, with the same room, so decoding never reallocates the cache.
Pre-fill empties the entries list it is given and keeps the caches' layers
in its own table, so each layer that no caller holds is freed once it is
placed for the last time.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .cache_store import CacheStore, CacheStoreEntry
from .model import CostMeter, KVCache, LayerCache, Model
from .retrieval import InvertedIndex, search
from .rope import RopeConfig, collect_position_overflows, reposition_array
from .tokenizer import ByteTokenizer

STRATEGIES = ("none", "align", "sort")


class ConfigurationError(ValueError):
    """A layout or schedule cannot be satisfied by the configuration."""


def compute_n_reuse(k: int, max_position: int, cache_len: int, prefix_len: int = 0,
                    reserve: int = 0) -> int:
    """Smallest number of position-range groups that fit k caches.

    Capacity counts whole cache slots in the usable range, i.e. max_position
    minus the prefix and a reserved query/generation budget.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cache_len < 1:
        raise ValueError(f"cache_len must be >= 1, got {cache_len}")
    capacity = (max_position - prefix_len - reserve) // cache_len
    if capacity < 1:
        raise ConfigurationError(
            f"cache length {cache_len} does not fit the usable range "
            f"({max_position} - prefix {prefix_len} - reserve {reserve})"
        )
    return -(-k // capacity)  # ceil


@dataclass(frozen=True)
class PlanSlot:
    group: int
    slot: int
    start: int


@dataclass
class AllocationPlan:
    """Assignment of each cache id to a (group, slot) position range.

    Groups share the identical position range; slots within a group are
    sequential. Insertion order of `slots` is retrieval-rank order.
    """

    n_reuse: int
    cache_len: int
    prefix_len: int
    slots: dict[str, PlanSlot]

    @property
    def slots_per_group(self) -> int:
        if not self.slots:
            return 0
        return max(s.slot for s in self.slots.values()) + 1

    @property
    def end(self) -> int:
        """First position after the deepest slot (where the query starts)."""
        return self.prefix_len + self.slots_per_group * self.cache_len

    def positions(self, cache_id: str) -> np.ndarray:
        start = self.slots[cache_id].start
        return np.arange(start, start + self.cache_len, dtype=np.int64)

    def validate(self, max_position: int) -> None:
        for cache_id, slot in self.slots.items():
            if slot.start + self.cache_len > max_position:
                raise ConfigurationError(
                    f"cache {cache_id!r} at [{slot.start}, {slot.start + self.cache_len}) "
                    f"exceeds max_position {max_position}"
                )


def plan_positions(ids_sorted: list[str], n_reuse: int, cache_len: int,
                   prefix_len: int) -> AllocationPlan:
    """Deal ids (best retrieval rank first) round-robin into n_reuse groups.

    Rank r lands in group r mod n_reuse at slot r div n_reuse, so each group
    holds a similar relevance profile and all groups share one range.
    """
    if not ids_sorted:
        raise ValueError("ids_sorted must be non-empty")
    if len(set(ids_sorted)) != len(ids_sorted):
        raise ValueError("ids_sorted contains duplicates")
    if not 1 <= n_reuse:
        raise ValueError(f"n_reuse must be >= 1, got {n_reuse}")
    slots: dict[str, PlanSlot] = {}
    for rank, cache_id in enumerate(ids_sorted):
        group, slot = rank % n_reuse, rank // n_reuse
        slots[cache_id] = PlanSlot(group=group, slot=slot,
                                   start=prefix_len + slot * cache_len)
    return AllocationPlan(slots=slots, n_reuse=n_reuse, cache_len=cache_len,
                          prefix_len=prefix_len)


@dataclass(frozen=True)
class PruningSchedule:
    """User-facing schedule knobs: prune every `interval` layers down to
    `k_finish` caches."""

    interval: int = 4
    k_finish: int = 5

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.k_finish < 1:
            raise ValueError(f"k_finish must be >= 1, got {self.k_finish}")


def removals_per_event(k: int, k_finish: int, num_layers: int, interval: int) -> int:
    """Caches dropped at each pruning event: (k - k_finish) / (layers / interval),
    floored; the terminal event absorbs any remainder."""
    events = num_layers // interval
    if events < 1:
        raise ConfigurationError(
            f"pruning interval {interval} exceeds the layer count {num_layers}"
        )
    return max((k - k_finish) // events, 0)


@dataclass
class PruningState:
    """Survivor set, accumulated scores and the prune schedule of one query."""

    surviving_ids: list[str]
    scores: dict[str, float]
    rank_of: dict[str, int]           # retrieval rank, breaks score ties
    keep_after: dict[int, int]        # {layers run: caches kept} at each prune event
    pruned_at_layer: dict[int, list[str]] = field(default_factory=dict)

    @classmethod
    def start(cls, ids: list[str], schedule: PruningSchedule | None,
              num_layers: int) -> "PruningState":
        """Prune event e, after e * interval layers, keeps k - e *
        removals_per_event caches, and the last one keeps k_finish; with
        schedule None or k <= k_finish there is no event."""
        keep_after = {}
        if schedule is not None and len(ids) > schedule.k_finish:
            k_prune = removals_per_event(len(ids), schedule.k_finish, num_layers,
                                         schedule.interval)
            events = num_layers // schedule.interval
            keep_after = {e * schedule.interval: len(ids) - e * k_prune
                          for e in range(1, events)}
            keep_after[events * schedule.interval] = schedule.k_finish
        return cls(surviving_ids=list(ids), scores={i: 0.0 for i in ids},
                   rank_of={i: r for r, i in enumerate(ids)}, keep_after=keep_after)

    @property
    def settled_from(self) -> int:
        """The first layer laid out after the last prune event; it and every
        later layer hold the final survivors (all layers when none is pruned)."""
        return max(self.keep_after, default=0)

    def prune_after(self, layers_run: int) -> list[str]:
        """After `layers_run` layers, drop the lowest-score caches when the
        schedule has an event there; ties keep the better-retrieved one.
        Returns the ids dropped."""
        keep = self.keep_after.get(layers_run)
        if keep is None or len(self.surviving_ids) <= keep:
            return []
        order = sorted(self.surviving_ids,
                       key=lambda i: (self.scores[i], -self.rank_of[i]))
        removed = self.pruned_at_layer[layers_run] = order[:len(order) - keep]
        self.surviving_ids = [i for i in self.surviving_ids if i not in removed]
        return removed


def accumulate_scores(weights: np.ndarray, blocks: dict[str, slice],
                      state: PruningState) -> PruningState:
    """Add each document's mean attention mass to its score.

    weights is one layer's float32 (heads, query rows, key cols) map, and
    blocks maps each cache id to be scored to the slice of key columns its
    keys fill. The increment is the softmax mass landing on that block,
    summed per row in float64 and averaged over heads and query rows, so
    long queries do not dominate.
    """
    for cache_id, block in blocks.items():
        state.scores[cache_id] += float(
            weights[:, :, block].sum(axis=2, dtype=np.float64).mean())
    return state


def _assemble_layer(ctx: LayerCache, rope: RopeConfig, layer_index: int,
                    prefix_layers: list[LayerCache], caches) -> list[slice]:
    """Lay out one layer's context in `ctx`, replacing what it held.

    The prefix's layer comes first, then each cache of `caches`, given as
    (per-layer LayerCaches, target positions, visible), with its layer's keys
    moved from their positions to the target ones. The query is one more
    such cache where its rows are already known. Returns the column block
    of each cache, in the order given.
    """
    ctx.clear()
    prefix = prefix_layers[layer_index]
    ctx.append(prefix.keys, prefix.values, prefix.position_ids, prefix.visible)
    blocks = []
    for layers, target, visible in caches:
        source = layers[layer_index]
        start = ctx.token_count
        ctx.append(reposition_array(rope, source.keys, source.position_ids, target),
                   source.values, target, visible)
        blocks.append(slice(start, ctx.token_count))
    return blocks


@dataclass
class PrefillResult:
    """What the pruning prefill hands to final repositioning and decoding;
    the survivors and their scores are those of `state`."""

    query: list[LayerCache]           # per layer, the query's float32 rows at pre-fill positions
    logits: np.ndarray                # (q, vocab) from the final layer
    state: PruningState
    per_layer_scores: list[dict[str, float]]
    strategy: str
    gen_tokens: int
    decode_context_length: int        # prefix + surviving caches + query tokens
    # per layer: its decode cache when pre-fill laid it out, else None
    decode_layers: list[LayerCache | None]
    # per survivor: (its layers, None once placed for the last time,
    # pre-fill positions, visibility)
    survivors: dict[str, tuple[list[LayerCache | None], np.ndarray, np.ndarray]]

    @property
    def first_token(self) -> int:
        return int(np.argmax(self.logits[-1]))


def prefill_with_pruning(
    model: Model,
    prefix: CacheStoreEntry,
    entries: list[CacheStoreEntry],
    query_tokens,
    schedule: PruningSchedule | None,
    plan: AllocationPlan,
    *,
    strategy: str = "none",
    gen_tokens: int = 1,
    meter: CostMeter | None = None,
) -> PrefillResult:
    """Layer-by-layer query pass over [prefix] + [surviving document caches].

    Per layer: lay out the prefix and the caches still alive, keys moved to
    their planned ranges, in a float64 buffer with room for the query;
    append the query's rows and attend over the buffer in place; accumulate
    per-document attention mass; and where the schedule has an event, drop
    the weakest caches, which are not repositioned again. With k <= k_finish
    (or schedule None) pruning is disabled and the pass only accumulates
    scores. Returns the query's own per-layer KV, the survivor set, and the
    score trajectory.

    strategy and gen_tokens are those of the decode that follows. When
    tokens are left to decode (gen_tokens > 1) and strategy is none, each
    layer after the last prune event gets its own buffer, laid out as
    decode needs it, with room for gen_tokens - 1 more rows; the others
    share one buffer. The survivors' layers that final allocation still
    needs are kept; with gen_tokens == 1 none are.

    entries is emptied: pre-fill keeps the caches' layers in its own table
    and drops each one placed for the last time, so the layers of entries
    that the caller does not hold elsewhere are freed during pre-fill. The
    entry objects are not changed.
    """
    cfg = model.config
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if gen_tokens < 1:
        raise ValueError("gen_tokens must be >= 1")
    query_tokens = np.asarray(query_tokens, dtype=np.int64)
    if query_tokens.size == 0:
        raise ValueError("query tokens must be non-empty")
    for entry in entries:
        if entry.prefix_hash != prefix.prefix_hash:
            raise ValueError(f"entry {entry.doc_id!r} was built against a different prefix")
        if entry.model_fingerprint != model.fingerprint:
            raise ValueError(f"entry {entry.doc_id!r} was built with a different model")
        if entry.doc_id not in plan.slots:
            raise ValueError(f"plan does not cover cache id {entry.doc_id!r}")

    ids = [e.doc_id for e in entries]
    state = PruningState.start(ids, schedule, cfg.num_layers)
    placement = {
        e.doc_id: (list(e.kv.layers), plan.positions(e.doc_id),
                   np.arange(e.token_count) < e.valid_len)
        for e in entries
    }
    entries.clear()

    def context_length(caches) -> int:  # the prefix, the caches and the query
        return (prefix.kv.layers[0].token_count + sum(visible.size for *_, visible in caches)
                + query_tokens.size)

    query_start = plan.end if ids else plan.prefix_len
    query_positions = np.arange(query_start, query_start + query_tokens.size, dtype=np.int64)
    query_visible = np.ones(query_tokens.size, dtype=bool)
    decoding = gen_tokens > 1
    first_decode_layer = (state.settled_from if decoding and strategy == "none"
                          else cfg.num_layers)

    hidden = model.embed(query_tokens)
    query: list[LayerCache] = []
    per_layer_scores: list[dict[str, float]] = []
    decode_layers: list[LayerCache | None] = [None] * cfg.num_layers
    shared = None

    for layer_index in range(cfg.num_layers):
        alive = [placement[cache_id] for cache_id in state.surviving_ids]
        if layer_index >= first_decode_layer:
            ctx = decode_layers[layer_index] = LayerCache.with_capacity(
                cfg.num_heads, cfg.head_dim, context_length(alive) + gen_tokens - 1)
        else:
            if shared is None:
                shared = LayerCache.with_capacity(cfg.num_heads, cfg.head_dim,
                                                  context_length(placement.values()))
            ctx = shared
        blocks = _assemble_layer(ctx, cfg.rope, layer_index, prefix.kv.layers, alive)
        if layer_index >= first_decode_layer or not decoding:
            for layers, _, _ in alive:  # placed for the last time
                layers[layer_index] = None
        hidden, k32, v32, weights = model.forward_layer(
            layer_index, hidden, ctx, query_positions, meter=meter, collect_map=True)
        query.append(LayerCache(k32, v32, query_positions, query_visible))
        accumulate_scores(weights, dict(zip(state.surviving_ids, blocks)), state)
        # free the map before the next layer's decode buffer is allocated, so
        # that buffer can take its place (about 4 MB less peak RSS at k=40
        # without pruning)
        del weights
        per_layer_scores.append(dict(state.scores))
        for cache_id in state.prune_after(layer_index + 1):
            del placement[cache_id]

    survivors = {cache_id: placement[cache_id] for cache_id in state.surviving_ids}
    return PrefillResult(
        query=query,
        logits=model.logits(hidden),
        state=state,
        per_layer_scores=per_layer_scores,
        strategy=strategy,
        gen_tokens=gen_tokens,
        decode_context_length=context_length(survivors.values()),
        decode_layers=decode_layers,
        survivors=survivors,
    )


def final_reposition(
    rope: RopeConfig,
    prefix: CacheStoreEntry,
    prefill: PrefillResult,
) -> KVCache:
    """Assemble the decode cache: prefix, surviving caches, query KV, laid
    out per layer by the same helper as pre-fill, in float64 buffers with
    room for the gen_tokens - 1 tokens still to decode.

    The strategy is the one pre-fill ran for. align compacts survivors into
    a contiguous block just before the query, keeping their current order;
    sort orders the block by ascending accumulated score so the strongest
    cache sits adjacent to the query (ties fall back to retrieval rank);
    none keeps the phase-1 layout, gaps included. The query's cached keys
    are repositioned the same way, never recomputed. The layers pre-fill
    already laid out for decode are taken over as they are; the others are
    built from the survivors' layers pre-fill kept, each dropped once
    placed, so call this once per pre-fill.
    """
    if prefill.gen_tokens < 2:
        raise ValueError("pre-fill ran for one token, which needs no decode cache")
    survivors = prefill.survivors
    query_positions = prefill.query[0].position_ids
    if prefill.strategy == "none":
        targets = {cache_id: positions for cache_id, (_, positions, _) in survivors.items()}
    else:
        placed = list(survivors)
        if prefill.strategy == "sort":
            state = prefill.state
            placed.sort(key=lambda cache_id: (state.scores[cache_id], -state.rank_of[cache_id]))
        targets = {}
        cursor = prefix.token_count
        for cache_id in placed:
            count = survivors[cache_id][2].size
            targets[cache_id] = np.arange(cursor, cursor + count, dtype=np.int64)
            cursor += count
        query_positions = np.arange(cursor, cursor + query_positions.size, dtype=np.int64)

    caches = [(layers, targets[cache_id], visible)
              for cache_id, (layers, _, visible) in survivors.items()]
    caches.append((list(prefill.query), query_positions, True))  # drops below spare prefill.query
    heads, _, dim = prefix.kv.layers[0].keys.shape
    capacity = prefill.decode_context_length + prefill.gen_tokens - 1
    layers = []
    for layer_index, layer in enumerate(prefill.decode_layers):
        if layer is None:
            layer = LayerCache.with_capacity(heads, dim, capacity)
            _assemble_layer(layer, rope, layer_index, prefix.kv.layers, caches)
            for cache_layers, _, _ in caches:  # placed for the last time
                cache_layers[layer_index] = None
        layers.append(layer)
    return KVCache(layers)


@dataclass
class PipelineTrace:
    query: str
    retrieved_ids: list[str]
    n_reuse: int
    plan: dict
    per_layer_scores: list[dict[str, float]]
    pruned_at_layer: dict[int, list[str]]
    final_ids: list[str]
    strategy: str
    timings: dict[str, float]
    op_counts: dict[str, int]
    context_length: int           # prefix, every entry and the query, before pruning
    decode_context_length: int    # tokens the decode cache holds before decoding
    warnings: list[str]           # the run's query-reserve and position-overflow warnings


@dataclass
class PipelineResult:
    tokens: list[int]
    trace: PipelineTrace


class Pipeline:
    """Retrieve, load caches, plan positions, prune while pre-filling, decode.

    One run owns its PruningState and cache assemblies exclusively; the
    store, index, and model are shared read-only, so independent runs may
    proceed concurrently.
    """

    def __init__(self, model: Model, store: CacheStore, index: InvertedIndex,
                 *, query_reserve: int = 128):
        if query_reserve < 0:
            raise ValueError(f"query_reserve must be >= 0, got {query_reserve}")
        self.model = model
        self.store = store
        self.index = index
        self.tokenizer = ByteTokenizer()
        self.query_reserve = query_reserve

    def run(self, query_text: str, k: int, *, schedule: PruningSchedule | None = None,
            strategy: str = "none", gen_tokens: int = 20,
            meter: CostMeter | None = None) -> PipelineResult:
        """End-to-end run; k=0 answers from the prefix and query alone.

        The store's manifest is read once per run and shared by every load, so
        entries saved since the previous run are found. Pre-fill writes the
        float64 decode cache as it goes wherever its layout is already final,
        and frees each layer of the loaded entries once it is placed for the
        last time, so the entries are gone before decoding starts and are
        never all held beside the whole decode cache. Decoding appends to
        that cache in place; with gen_tokens=1 no decode cache is built. The
        trace times retrieval (retrieve_s) and loading (load_s) as well, and
        total_s counts every stage.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        t0 = time.perf_counter()
        retrieved = search(self.index, query_text, k) if k > 0 else []
        t1 = time.perf_counter()
        manifest = self.store.read_manifest()
        prefix = self.store.load_prefix(manifest=manifest)
        # pre-fill empties this list, the only holder of the entries
        entries = [self.store.load_entry(doc_id, manifest=manifest) for doc_id, _ in retrieved]
        t2 = time.perf_counter()
        result = self.run_with_entries(query_text, entries, prefix=prefix, schedule=schedule,
                                       strategy=strategy, gen_tokens=gen_tokens, meter=meter)
        timings = result.trace.timings
        result.trace.timings = {"retrieve_s": t1 - t0, "load_s": t2 - t1, **timings,
                                "total_s": t2 - t0 + timings["total_s"]}
        return result

    def run_with_entries(self, query_text: str, entries: list[CacheStoreEntry], *,
                         prefix: CacheStoreEntry, schedule: PruningSchedule | None = None,
                         strategy: str = "none", gen_tokens: int = 20,
                         meter: CostMeter | None = None) -> PipelineResult:
        """Plan, prefill with pruning, assemble the decode cache and decode,
        on explicit entries, loaded from the store or built online.

        Like prefill_with_pruning, this empties `entries`, so entries the
        caller holds nowhere else are freed during pre-fill; pass a copy of
        the list to keep them. The entries themselves are not changed. The
        trace times pre-fill and decoding only, and keeps the warnings issued
        on the way.
        """
        meter = meter if meter is not None else CostMeter()
        meter.phase = "prefill"
        t0 = time.perf_counter()
        query_tokens = self.tokenizer.encode(query_text)
        cfg = self.model.config
        retrieved_ids = [e.doc_id for e in entries]
        context_length = (prefix.token_count + sum(e.token_count for e in entries)
                          + len(query_tokens))
        issued: list[str] = []

        if entries:
            lengths = {e.token_count for e in entries}
            if len(lengths) > 1:
                raise ValueError(f"entries disagree on passage length: {sorted(lengths)}")
            cache_len = entries[0].token_count
            n_reuse = compute_n_reuse(len(entries), cfg.rope.max_position, cache_len,
                                      prefix_len=prefix.token_count,
                                      reserve=self.query_reserve)
            plan = plan_positions(retrieved_ids, n_reuse, cache_len, prefix.token_count)
            plan.validate(cfg.rope.max_position)
        else:
            n_reuse = 0
            plan = AllocationPlan(slots={}, n_reuse=0, cache_len=0,
                                  prefix_len=prefix.token_count)
        if len(query_tokens) + gen_tokens > self.query_reserve:
            issued.append(
                f"query plus generation ({len(query_tokens)} + {gen_tokens}) exceeds the "
                f"reserved budget of {self.query_reserve}; positions may extrapolate")
            warnings.warn(issued[-1], stacklevel=2)

        with collect_position_overflows(issued):
            prefill = prefill_with_pruning(self.model, prefix, entries, query_tokens, schedule,
                                           plan, strategy=strategy, gen_tokens=gen_tokens,
                                           meter=meter)
            cache = final_reposition(cfg.rope, prefix, prefill) if gen_tokens > 1 else None
            t1 = time.perf_counter()
            meter.phase = "decode"
            tokens = [prefill.first_token]
            if cache is not None:
                tokens += self.model.decode(cache, prefill.first_token, gen_tokens - 1,
                                            meter=meter)
            t2 = time.perf_counter()
        trace = PipelineTrace(
            query=query_text,
            retrieved_ids=retrieved_ids,
            n_reuse=n_reuse,
            plan=asdict(plan),
            per_layer_scores=prefill.per_layer_scores,
            pruned_at_layer=prefill.state.pruned_at_layer,
            final_ids=list(prefill.state.surviving_ids),
            strategy=strategy,
            timings={"prefill_s": t1 - t0, "decode_s": t2 - t1, "total_s": t2 - t0},
            op_counts={"prefill_mults": meter.prefill_mults,
                       "decode_mults": meter.decode_mults},
            context_length=context_length,
            decode_context_length=prefill.decode_context_length,
            warnings=issued,
        )
        return PipelineResult(tokens=tokens, trace=trace)


def run_full_context(model: Model, prefix_tokens, passages, query_tokens, *,
                     gen_tokens: int = 20, meter: CostMeter | None = None):
    """Uncached comparison path: one monolithic forward over
    prefix + fixed-length passages + query, then greedy decoding.

    passages: list of (tokens, valid_len) pairs, already padded to the fixed
    passage length; padding keys are masked exactly as in the cached path.
    Returns (tokens, context_length, timings).
    """
    if gen_tokens < 1:
        raise ValueError("gen_tokens must be >= 1")
    meter = meter if meter is not None else CostMeter()
    meter.phase = "prefill"
    t0 = time.perf_counter()
    tokens = [int(t) for t in prefix_tokens]
    visible = [True] * len(tokens)
    for doc_tokens, valid_len in passages:
        tokens += [int(t) for t in doc_tokens]
        visible += [i < valid_len for i in range(len(doc_tokens))]
    query = [int(t) for t in query_tokens]
    tokens += query
    visible += [True] * len(query)

    cache = model.new_cache()
    first, cache = model.prefill(cache, tokens, positions=np.arange(len(tokens)),
                                 visible=np.asarray(visible, dtype=bool), meter=meter)
    t1 = time.perf_counter()
    meter.phase = "decode"
    out = [first] + model.decode(cache, first, gen_tokens - 1, meter=meter)
    t2 = time.perf_counter()
    timings = {"prefill_s": t1 - t0, "decode_s": t2 - t1, "total_s": t2 - t0}
    return out, len(tokens), timings
