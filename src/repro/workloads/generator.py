"""Synthetic application generator.

Builds a :class:`~repro.isa.binary.Binary` from an
:class:`~repro.workloads.appmodel.AppParams`: a hot pool of tiny
always-resident helpers, a shared helper library, per-stage routine call
trees, indirect-call stage dispatchers, the request loop, and a large
body of cold (never executed) code shaped like more of the same so that
the *static* bundle statistics (Table 4) resemble a real binary.  All
randomness is seeded; the same params object always yields the same
binary.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.binary import Binary, BlockSpec, Function
from repro.isa.instructions import BranchKind, INSTR_BYTES
from repro.isa.linker import Linker
from repro.isa.loader import LoadedProgram
from repro.workloads.appmodel import (
    Application,
    AppParams,
    zipf_weights,
)

_EASY_TAKEN = 0.008
_EASY_NOT_TAKEN = 0.985


# ----------------------------------------------------------------------
# Function-body construction
# ----------------------------------------------------------------------
def _make_body(
    rng: random.Random,
    params: AppParams,
    size_bytes: int,
    callees: Sequence[Tuple[str, bool]],
    loop: bool = False,
    switch_targets: Optional[Tuple[str, ...]] = None,
) -> List[BlockSpec]:
    """Build a function body of roughly ``size_bytes``.

    ``callees`` is a sequence of ``(name, optional)`` call sites emitted
    in order; optional sites get a conditional guard that skips the call
    with ``params.optional_call_prob`` per execution.  Compute blocks
    with forward conditional branches fill the remaining budget; at most
    one fixed-trip-count loop is placed when ``loop`` is set.
    """
    target_instrs = max(6, size_bytes // INSTR_BYTES)
    blocks: List[BlockSpec] = []
    instrs = 0
    # A binary draws ~100K blocks here: read the RNG's methods and the
    # params once.  ``lo + randbelow(hi - lo + 1)`` is ``randint(lo, hi)``
    # without its argument checks, drawing the identical stream
    # (tests/test_generator_bodies.py pins the equivalence).
    randbelow = rng._randbelow
    rand = rng.random
    append = blocks.append
    COND = BranchKind.COND
    noise = params.branch_noise
    biased = noise + params.taken_bias_frac
    noisy_prob = params.noisy_taken_prob

    # Reserve instruction budget for call blocks.
    call_budget = sum(3 + (4 if optional else 0) for _, optional in callees)
    fill_target = max(0, target_instrs - call_budget - 4)
    n_callees = len(callees)
    fill_per_gap = fill_target // (n_callees + 1) if n_callees else fill_target

    def fill(amount: int) -> None:
        """Append compute blocks until they hold ``amount`` instructions."""
        nonlocal instrs
        done = 0
        while done < amount:
            n = 4 + randbelow(7)
            draw = rand()
            if draw < noise:
                prob = noisy_prob
            elif draw < biased:
                # Taken-biased branch: direction is easy to predict, but
                # the branch needs a BTB entry for the FTQ to follow it —
                # the population that pressures the BTB on large working
                # sets.  (The taken target is the next block, so FDIP's
                # sequential continuation covers the code even on a BTB
                # miss; only the resteer bubble is paid.)
                prob = _EASY_NOT_TAKEN
            else:
                prob = _EASY_TAKEN
            append(BlockSpec(n, COND, taken_prob=prob,
                             taken_next=len(blocks) + 1))
            done += n
        instrs += done

    fill(fill_per_gap)
    if switch_targets:
        n = 2 + randbelow(4)
        append(BlockSpec(n, BranchKind.ICALL, targets=tuple(switch_targets)))
        instrs += n
        fill(max(4, fill_per_gap // 2))
    for name, optional in callees:
        if optional:
            # Guard block: taken skips over the call block.
            n = 2 + randbelow(3)
            append(BlockSpec(n, COND, taken_prob=params.optional_call_prob,
                             taken_next=len(blocks) + 2))
            instrs += n
        n = 2 + randbelow(4)
        append(BlockSpec(n, BranchKind.CALL, callee=name))
        instrs += n
        fill(fill_per_gap)
    if loop:
        # Fixed-trip-count loop: body block, then a backward branch.
        body = 4 + randbelow(5)
        append(BlockSpec(body, COND, taken_prob=_EASY_TAKEN,
                         taken_next=len(blocks) + 1))
        back = 2 + randbelow(4)
        trips = 3 + randbelow(7)
        append(BlockSpec(back, COND, taken_prob=0.0,
                         taken_next=len(blocks) - 1, loop_count=trips))
        instrs += (body + back) * trips
    fill(target_instrs - instrs)
    # Fix dangling guard/cond targets that point past the RET we add now.
    append(BlockSpec(1 + randbelow(3), BranchKind.RET))
    last = len(blocks) - 1
    for blk in blocks:
        if blk.taken_next > last and blk.kind == COND:
            blk.taken_next = last
    return blocks


def _new_function(
    binary: Binary,
    rng: random.Random,
    params: AppParams,
    name: str,
    size_bytes: int,
    callees: Sequence[Tuple[str, bool]] = (),
    loop: bool = False,
    switch_targets: Optional[Tuple[str, ...]] = None,
) -> Function:
    body = _make_body(rng, params, size_bytes, callees, loop=loop,
                      switch_targets=switch_targets)
    return binary.add_function(Function(name, body))


def _func_size(rng: random.Random, params: AppParams) -> int:
    """Draw a function size (bytes) around the configured mean."""
    mean = params.avg_func_bytes
    return max(48, int(rng.lognormvariate(0, 0.6) * mean))


# ----------------------------------------------------------------------
# Program regions
# ----------------------------------------------------------------------
def _build_hot_pool(binary, rng, params) -> List[str]:
    names: List[str] = []
    budget = int(params.hot_pool_kb * 1024)
    i = 0
    while budget > 0:
        size = rng.randint(48, 160)
        name = f"hot_{i}"
        callees: List[Tuple[str, bool]] = []
        if names and rng.random() < 0.3:
            callees.append((rng.choice(names), False))
        _new_function(binary, rng, params, name, size, callees)
        names.append(name)
        budget -= size
        i += 1
    return names


def _build_shared_pool(binary, rng, params, hot: List[str]) -> List[str]:
    names: List[str] = []
    budget = int(params.shared_pool_kb * 1024)
    i = 0
    while budget > 0:
        size = _func_size(rng, params)
        name = f"lib_{i}"
        callees: List[Tuple[str, bool]] = []
        # Earlier library functions and hot helpers, keeping the
        # intra-library call graph acyclic.
        for _ in range(rng.randint(0, 2)):
            if names and rng.random() < 0.6:
                callees.append((rng.choice(names[-20:]), False))
            elif hot:
                callees.append((rng.choice(hot), False))
        _new_function(binary, rng, params, name, size,
                      callees, loop=rng.random() < 0.2)
        names.append(name)
        budget -= size
        i += 1
    return names


def _build_subtree(
    binary,
    rng,
    params,
    prefix: str,
    budget_bytes: int,
    shared: List[str],
    hot: List[str],
    shared_frac: float,
) -> str:
    """Build a deterministic call tree under ``prefix``; return its root.

    Private functions are generated to consume ``budget_bytes`` and
    linked into a fan-out tree (children only at deeper indices, so the
    intra-routine graph is acyclic); call sites additionally target the
    shared library with probability ``shared_frac``, some of them
    optional per execution.
    """
    sizes: List[int] = []
    remaining = budget_bytes
    while remaining > 0:
        size = _func_size(rng, params)
        sizes.append(size)
        remaining -= size
    n = len(sizes)
    names = [f"{prefix}_f{i}" for i in range(n)]
    # Assign children: breadth-first partition of the index space.
    children: List[List[int]] = [[] for _ in range(n)]
    next_child = 1
    frontier = [0]
    while next_child < n:
        parent = frontier.pop(0) if frontier else next_child - 1
        fanout = min(rng.randint(2, 4), n - next_child)
        for _ in range(fanout):
            children[parent].append(next_child)
            frontier.append(next_child)
            next_child += 1
    # Emit deepest-first so callees exist before callers.
    for i in range(n - 1, -1, -1):
        callees: List[Tuple[str, bool]] = []
        for child in children[i]:
            callees.append((names[child], False))
        n_shared = rng.randint(0, 2) if rng.random() < shared_frac else 0
        for _ in range(n_shared):
            optional = rng.random() < params.optional_site_frac
            callees.append((rng.choice(shared), optional))
        if hot and rng.random() < 0.5:
            callees.append((rng.choice(hot), False))
        rng.shuffle(callees)
        _new_function(binary, rng, params, names[i], sizes[i], callees,
                      loop=rng.random() < 0.25)
    return names[0]


def _build_tree(
    binary,
    rng,
    params,
    prefix: str,
    budget_bytes: int,
    shared: List[str],
    hot: List[str],
    shared_frac: float,
) -> str:
    """Build one routine: a root calling a sequence of *sections*.

    Most sections are fixed subtrees executed every invocation; with
    probability ``params.switch_site_frac`` a section is a per-execution
    *switch* — an indirect call selecting one of 2-3 alternative variant
    subtrees.  Switches are the paper's minor divergence points: they
    stay inside the Bundle (each variant is far below the divergence
    threshold) and bound how well any record-and-replay prefetcher can
    anticipate the footprint.
    """
    n_sections = max(2, min(5, budget_bytes // (12 * 1024)))
    base = budget_bytes // n_sections
    root_callees: List[Tuple[str, bool]] = []
    switches: List[Tuple[str, ...]] = []
    for k in range(n_sections):
        section_budget = max(4096, int(base * rng.uniform(0.7, 1.3)))
        is_switch = (
            rng.random() < params.switch_site_frac
            and section_budget >= 8 * 1024
        )
        if is_switch:
            n_variants = rng.randint(2, 3)
            variants = tuple(
                _build_subtree(
                    binary, rng, params, f"{prefix}s{k}v{j}",
                    int(section_budget * 0.75), shared, hot, shared_frac,
                )
                for j in range(n_variants)
            )
            switches.append(variants)
        else:
            root_callees.append((
                _build_subtree(binary, rng, params, f"{prefix}s{k}",
                               section_budget, shared, hot, shared_frac),
                False,
            ))
    # Switches beyond the first get thin wrapper functions called from
    # the root, so every switch is a distinct indirect-call site.
    for w, variants in enumerate(switches[1:], start=1):
        wrapper = f"{prefix}_sw{w}"
        _new_function(binary, rng, params, wrapper,
                      rng.randint(96, 224), (), switch_targets=variants)
        root_callees.append((wrapper, False))
    rng.shuffle(root_callees)
    root = f"{prefix}_f0"
    _new_function(
        binary, rng, params, root,
        rng.randint(256, 640), root_callees,
        switch_targets=switches[0] if switches else None,
    )
    return root


def _build_cold_region(binary, rng, params, shared: List[str],
                       n_funcs: int) -> None:
    """Cold modules: never-executed code shaped like the live code.

    Cold code is organized as module trees with their own dispatch-like
    divergence so the *static* bundle census (Table 4) counts entries in
    cold code too, as it would in a real binary.
    """
    built = 0
    module = 0
    while built < n_funcs:
        tree_budget = int(
            rng.uniform(0.5, 2.0) * params.bundle_threshold
        )
        prefix = f"cold_m{module}"
        before = len(binary)
        _build_tree(binary, rng, params, prefix, tree_budget, shared, [],
                    shared_frac=0.2)
        built += len(binary) - before
        module += 1


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------
def generate_binary(params: AppParams) -> Tuple[Binary, Dict[str, str]]:
    """Generate the binary; returns (binary, stage->dispatcher map)."""
    rng = random.Random(params.seed)
    binary = Binary(entry="main")
    hot = _build_hot_pool(binary, rng, params)
    shared = _build_shared_pool(binary, rng, params, hot)

    dispatchers: Dict[str, str] = {}
    for stage in params.stages:
        roots = []
        for r in range(stage.n_routines):
            prefix = f"{stage.name}_r{r}"
            root = _build_tree(
                binary, rng, params, prefix,
                int(stage.routine_kb * 1024), shared, hot,
                stage.shared_frac,
            )
            roots.append(root)
        stub = f"{stage.name}_skip"
        _new_function(binary, rng, params, stub, 64)
        roots.append(stub)
        dispatcher = f"{stage.name}_dispatch"
        body = [
            BlockSpec(ninstr=rng.randint(4, 8), kind=BranchKind.COND,
                      taken_prob=_EASY_TAKEN, taken_next=1),
            BlockSpec(ninstr=rng.randint(2, 4), kind=BranchKind.ICALL,
                      targets=tuple(roots), selector=stage.name),
            BlockSpec(ninstr=rng.randint(1, 3), kind=BranchKind.RET),
        ]
        binary.add_function(Function(dispatcher, body))
        dispatchers[stage.name] = dispatcher

    # Request loop: one call block per stage dispatcher, then loop back.
    main_blocks: List[BlockSpec] = [
        BlockSpec(ninstr=6, kind=BranchKind.COND, taken_prob=_EASY_TAKEN,
                  taken_next=1)
    ]
    for stage in params.stages:
        main_blocks.append(
            BlockSpec(ninstr=3, kind=BranchKind.CALL,
                      callee=dispatchers[stage.name])
        )
    main_blocks.append(BlockSpec(ninstr=2, kind=BranchKind.JUMP, taken_next=0))
    binary.add_function(Function("main", main_blocks))

    live_funcs = len(binary)
    _build_cold_region(
        binary, rng, params, shared,
        n_funcs=int(live_funcs * params.cold_func_frac),
    )
    binary.layout()
    return binary, dispatchers


def build_app(params: AppParams) -> Application:
    """Generate, link and load a complete application."""
    binary, dispatchers = generate_binary(params)
    Linker(params.bundle_threshold).link(binary)
    program = LoadedProgram(binary)
    rng = random.Random(params.seed ^ 0x5EED)
    stage_names = [s.name for s in params.stages]
    route_map: List[Dict[str, str]] = []
    for rt in range(params.n_request_types):
        routes: Dict[str, str] = {}
        for stage in params.stages:
            if rng.random() < stage.skip_prob:
                routes[stage.name] = f"{stage.name}_skip"
            else:
                routine = (rt + rng.randint(0, 1)) % stage.n_routines
                routes[stage.name] = f"{stage.name}_r{routine}_f0"
        route_map.append(routes)
    weights = zipf_weights(params.n_request_types, params.zipf_alpha)
    return Application(
        params=params,
        binary=binary,
        program=program,
        dispatchers=dispatchers,
        route_map=route_map,
        stage_names=stage_names,
        request_weights=weights,
    )
