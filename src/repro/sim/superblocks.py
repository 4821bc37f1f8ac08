"""The pipeline's compiled loop (``engine="superblocks"``, the default).

:func:`run_pipeline_superblocks` is a monolithic transcription of
``PipelineSimulator.tick()``: every latch, flag and counter lives in
locals for the whole run, the EX dispatch runs on the ``_Decoded``
integer kind codes (``exk``/``aluk``/``condk``/``lfk``), hazard checks
use register bitmasks, and the not-taken/bimodal predictors and the
cache access are inlined with their state hoisted.  Interpreting
``tick()`` against the real object graph would still pay three costs
per cycle:

* every control instruction crosses the ``ASBRUnit`` object graph —
  ``try_fold`` walks BIT bank -> dict -> ``BITEntry`` -> BDT entry ->
  ``Dict[Condition, bool]`` and allocates a frozen ``FoldDecision``;
  every producer pays ``acquire``/``release`` bound calls, and every
  release rewrites six ``Condition``-keyed dict slots;
* every in-flight instruction lives in a ``_Slot`` object, so each
  stage's work is a burst of attribute traffic and each fetch re-
  initialises nine attributes through the recycling pool;
* every cache access re-proves MRU status through an ``OrderedDict``
  membership test plus ``move_to_end``.

This module compiles all three away while keeping the cycle-for-cycle
semantics *provably* identical (see DESIGN.md, "Compiled fold checks"):

**Fold superblocks.**  Each BIT entry is compiled, per bank, into one
direct-threaded record ``pc -> (cond_reg, dirs, taken-chain,
fall-chain)`` where both chains carry the pre-decoded replacement
instruction (``_foreign_decode``'d once) and its successor fetch PC.
The BDT is shadowed by two flat lists — per-register validity counter
and *sign class* (0 = zero, 1 = positive, 2 = negative).  The six
direction bits of a :class:`~repro.asbr.bdt.BDTEntry` are a pure
function of the sign class of the last released value, so the compiled
check ``dirs[cls]`` is bit-identical to ``bdt.lookup(reg, cond)`` and a
release collapses from six enum-dict stores to one list store.  The
threshold-2/3/4 update points (``execute``/``mem``/``commit``) keep the
exact deferred-release discipline of the interpreted loop: releases are
queued during stage advance and drained at end of cycle, *after* the
fetch-stage fold check, preserving the paper's validity-counter timing.
Committed ``ctlw`` bank switches fall back to the real
:meth:`~repro.asbr.bit.BankedBIT.select_bank` (validation + switch
counting) and swap in the per-bank compiled map.

**Local-variable latches.**  The five pipeline slots are exploded into
per-stage local variables; a stage advance is a handful of local moves
and a squash is one assignment, so the steady state does no attribute
access and no allocation at all.  ``finally`` rebuilds real ``_Slot``
objects so budget errors and post-run inspection observe exactly the
state the interpreted loop would leave.

**MRU memo.**  Per-set last-tag arrays skip the OrderedDict reproof
when an access hits the line that is already most-recently-used (the
overwhelmingly common case for sequential fetch).  Store hits still
write the dirty bit; miss/eviction/writeback behavior is untouched.

Fallback surface: an attached tracer, fault-injection ``tick``
rebinding, a decoupled frontend or subclassing all make
``PipelineSimulator.run`` take the interpreted loop instead (observers
need per-cycle visibility into the real object graph).  The
golden-stats locks, the differential sweep and
``benchmarks/perf_smoke.py`` pin bit-identity of the full
``PipelineStats`` against the interpreted loop.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.isa.conditions import Condition
from repro.sim.functional import SimulationError

#: direction bit per condition for each sign class of the released
#: value: index 0 = zero, 1 = positive, 2 = negative.  This is
#: ``BDTEntry.update_bits`` evaluated symbolically.
_DIRS_BY_COND: Dict[Condition, Tuple[bool, bool, bool]] = {
    Condition.EQZ: (True, False, False),
    Condition.NEZ: (False, True, True),
    Condition.LTZ: (False, False, True),
    Condition.LEZ: (True, False, True),
    Condition.GTZ: (False, True, False),
    Condition.GEZ: (True, True, False),
}


def _class_of_bits(bits: Dict[Condition, bool]) -> int:
    """Recover the sign class encoded by a consistent direction-bit set."""
    if bits[Condition.EQZ]:
        return 0
    return 2 if bits[Condition.LTZ] else 1


def compile_fold_map(sim, asbr, bank_index: int) -> dict:
    """Compile one BIT bank into direct-threaded fold superblocks.

    Each entry becomes ``pc -> (cond_reg, dirs, taken_d, taken_pc,
    taken_next, fall_d, fall_pc, fall_next)``: the replacement
    instructions are pre-decoded through the simulator's pinned
    ``_foreign_decode`` memo (so identity matches the interpreted fold
    path exactly) and both successor fetch PCs are constants — a fold
    hit transfers straight from the branch PC to its replacement's
    decoded record with no table walk and no allocation.
    """
    fm = {}
    for entry in asbr.bit.banks[bank_index]:
        dirs = _DIRS_BY_COND[entry.condition]
        taken_d = sim._foreign_decode(entry.bti, entry.bta)
        fall_d = sim._foreign_decode(entry.bfi, entry.pc + 4)
        fm[entry.pc] = (entry.cond_reg, dirs,
                        taken_d, entry.bta, entry.bta + 4,
                        fall_d, entry.pc + 4, entry.pc + 8)
    return fm


def run_pipeline_superblocks(sim):
    """Monolithic fast twin of ``PipelineSimulator.run`` with ASBR
    folding, BDT updates and predictor decisions compiled in.

    See the module docstring for what is specialized.  State (latches,
    stats, cache counters) is written back in ``finally`` so budget
    errors and post-run inspection see the simulator the interpreted
    loop would leave behind.  Bit-identical timing and ASBR statistics
    are locked by the golden suite.
    """
    from repro.predictors.bimodal import BimodalPredictor
    from repro.predictors.simple import NotTakenPredictor
    from repro.sim.pipeline import _Slot

    stats = sim.stats
    if sim.halted:
        return stats
    max_cycles = sim.config.max_cycles
    asbr = sim.asbr
    predictor = sim.predictor
    pred_predict = predictor.predict
    pred_update = predictor.update
    if type(predictor) is NotTakenPredictor:
        pmode = 1
        counters = p_mask = btb_tags = btb_targets = b_mask = None
    elif type(predictor) is BimodalPredictor:
        pmode = 2
        counters = predictor._counters
        p_mask = predictor._mask
        btb = predictor.btb
        btb_tags = btb._tags
        btb_targets = btb._targets
        b_mask = btb._mask
    else:
        pmode = 0
        counters = p_mask = btb_tags = btb_targets = b_mask = None
    regs = sim._reglist
    mem_read = sim._mem_read
    mem_write = sim._mem_write
    dec = sim._dec
    base = sim._text_base
    end = sim._text_end
    bdt_commit = sim._bdt_commit
    rel_mem = sim._rel_mem
    rel_ex = sim._rel_ex
    pending = sim._pending_releases     # list identity is stable

    # ---- ASBR compiled state (shadow BDT + per-bank fold maps) -------
    if asbr is not None:
        bit = asbr.bit
        bdt = asbr.bdt
        bdt_entries = bdt.entries
        cmax = bdt.counter_max
        bcnt = [e.counter for e in bdt_entries]
        bcls = [_class_of_bits(e.bits) for e in bdt_entries]
        btouched = [False] * len(bdt_entries)
        ctl_write = asbr.control_write
        fold_maps = {bit.active: compile_fold_map(sim, asbr, bit.active)}
        fold_map = fold_maps[bit.active]
        fstats = asbr.stats
        f_taken = fstats.folded_taken
        f_nt = fstats.folded_not_taken
        f_inv = fstats.invalid_fallbacks
        per_pc = fstats.per_pc_folds
        asbr_on = True
    else:
        bit = bdt = bdt_entries = None
        cmax = 0
        bcnt = bcls = btouched = None
        ctl_write = None
        fold_map = None
        fstats = None
        f_taken = f_nt = f_inv = 0
        per_pc = None
        asbr_on = False

    # cache geometry/statistics, hoisted, plus per-set MRU tag memos
    icache = sim.icache
    ic_sets = icache._sets
    ic_shift = icache._block_shift
    ic_smask = icache._set_mask
    ic_assoc = icache.config.assoc
    ic_pen = icache.config.miss_penalty
    ic_wbpen = icache.config.writeback_penalty
    ic_stats = icache.stats
    ic_acc = ic_stats.accesses
    ic_miss = ic_stats.misses
    ic_wbk = ic_stats.writebacks
    ic_last = [-1] * len(ic_sets)
    dcache = sim.dcache
    dc_sets = dcache._sets
    dc_shift = dcache._block_shift
    dc_smask = dcache._set_mask
    dc_assoc = dcache.config.assoc
    dc_pen = dcache.config.miss_penalty
    dc_wbpen = dcache.config.writeback_penalty
    dc_stats = dcache.stats
    dc_acc = dc_stats.accesses
    dc_miss = dc_stats.misses
    dc_wbk = dc_stats.writebacks
    dc_last = [-1] * len(dc_sets)

    # ---- latches exploded into per-stage locals ----------------------
    # d is the occupancy sentinel (stage empty <=> d is None); fields
    # not listed for a stage are never read once the slot is there.
    s = sim.s_if
    if s is not None:
        f_d, f_pc, f_fo, f_uf, f_pr = (s.d, s.pc, s.folded,
                                       s.uncond_folded, s.pred_next_pc)
    else:
        f_d = None
        f_pc = f_pr = 0
        f_fo = f_uf = False
    s = sim.s_id
    if s is not None:
        i_d, i_pc, i_fo, i_uf, i_pr = (s.d, s.pc, s.folded,
                                       s.uncond_folded, s.pred_next_pc)
        i_acq = s.acquired_reg
        i_done = s.id_done
    else:
        i_d = i_acq = None
        i_pc = i_pr = 0
        i_fo = i_uf = i_done = False
    s = sim.s_ex
    if s is not None:
        e_d, e_pc, e_fo, e_uf, e_pr = (s.d, s.pc, s.folded,
                                       s.uncond_folded, s.pred_next_pc)
        e_acq = s.acquired_reg
        e_done = s.ex_done
        e_res, e_addr, e_sv = s.result, s.mem_addr, s.store_val
    else:
        e_d = e_acq = None
        e_pc = e_pr = e_res = e_addr = e_sv = 0
        e_fo = e_uf = e_done = False
    s = sim.s_mem
    if s is not None:
        m_d, m_pc, m_fo, m_uf = s.d, s.pc, s.folded, s.uncond_folded
        m_acq = s.acquired_reg
        m_done, m_wait = s.mem_done, s.mem_wait
        m_res, m_addr, m_sv = s.result, s.mem_addr, s.store_val
        dd = s.d.dest
        m_dest = dd if dd is not None else -1
    else:
        m_d = m_acq = None
        m_pc = m_wait = m_res = m_addr = m_sv = 0
        m_fo = m_uf = m_done = False
        m_dest = -1
    s = sim.s_wb
    if s is not None:
        w_d, w_pc, w_fo, w_uf = s.d, s.pc, s.folded, s.uncond_folded
        w_acq = s.acquired_reg
        w_res = s.result
    else:
        w_d = w_acq = None
        w_pc = w_res = 0
        w_fo = w_uf = False
    s = None

    if_wait = sim.if_wait
    fetch_pc = sim.fetch_pc
    fetch_halted = sim._fetch_halted
    suppress = sim._suppress_fetch
    halted = False

    # statistics counters
    cycles = stats.cycles
    committed = stats.committed
    fetched = stats.fetched
    squashed = stats.squashed
    branches = stats.branches
    mispredicts = stats.branch_mispredicts
    folds = stats.folds_committed
    uncond_folds = stats.uncond_folds_committed
    lookups = stats.predictor_lookups
    jump_bubbles = stats.jump_bubbles
    jr_redirects = stats.jr_redirects
    load_use = stats.load_use_stalls
    istalls = stats.icache_miss_stalls
    dstalls = stats.dcache_miss_stalls

    try:
        while True:
            if cycles >= max_cycles:
                raise SimulationError(
                    "cycle budget (%d) exhausted; fetch_pc=0x%x"
                    % (max_cycles, fetch_pc))
            cycles += 1
            suppress = False

            # ---- WB: commit ----------------------------------------
            if w_d is not None:
                d = w_d
                dest = d.dest
                if dest is not None and dest != 0:
                    regs[dest] = w_res & 4294967295
                    if w_acq is not None and bdt_commit:
                        pending.append((dest, w_res))
                if w_fo:
                    folds += 1
                if w_uf:
                    uncond_folds += 1
                committed += 1
                w_d = None
                if d.is_halt:
                    # nothing younger may have architectural effect —
                    # and pending releases die with the wrong path
                    halted = True
                    break
                if d.is_ctl and asbr_on:
                    prev_bank = bit.active
                    ctl_write(d.imm)
                    active = bit.active
                    if active != prev_bank:
                        fold_map = fold_maps.get(active)
                        if fold_map is None:
                            fold_map = compile_fold_map(sim, asbr, active)
                            fold_maps[active] = fold_map

            # ---- MEM: first-cycle work -----------------------------
            if m_d is not None and not m_done:
                d = m_d
                m_done = True
                if d.is_load:
                    addr = m_addr
                    v = mem_read(addr, d.size)
                    lf = d.lfk
                    if lf == 1:                     # lw
                        m_res = v & 4294967295
                    elif lf == 2:                   # lbu
                        m_res = v & 255
                    elif lf == 3:                   # lhu
                        m_res = v & 65535
                    elif lf == 4:                   # lb
                        v &= 255
                        m_res = ((v - 256) & 4294967295
                                 if v & 128 else v)
                    elif lf == 5:                   # lh
                        v &= 65535
                        m_res = ((v - 65536) & 4294967295
                                 if v & 32768 else v)
                    else:
                        m_res = d.load_fix(v)
                    tag = addr >> dc_shift
                    si = tag & dc_smask
                    dc_acc += 1
                    if dc_last[si] == tag:          # already MRU: hit
                        m_wait = 0
                    else:
                        way = dc_sets[si]
                        if tag in way:
                            way.move_to_end(tag)
                            dc_last[si] = tag
                            m_wait = 0
                        else:
                            dc_miss += 1
                            extra = dc_pen
                            if len(way) >= dc_assoc:
                                _victim, dirty = way.popitem(last=False)
                                if dirty:
                                    dc_wbk += 1
                                    extra += dc_wbpen
                            way[tag] = False
                            dc_last[si] = tag
                            m_wait = extra
                            dstalls += extra
                elif d.is_store:
                    addr = m_addr
                    mem_write(addr, m_sv, d.size)
                    tag = addr >> dc_shift
                    si = tag & dc_smask
                    dc_acc += 1
                    way = dc_sets[si]
                    if dc_last[si] == tag:          # already MRU: hit
                        way[tag] = True             # still sets dirty
                        m_wait = 0
                    elif tag in way:
                        way.move_to_end(tag)
                        way[tag] = True
                        dc_last[si] = tag
                        m_wait = 0
                    else:
                        dc_miss += 1
                        extra = dc_pen
                        if len(way) >= dc_assoc:
                            _victim, dirty = way.popitem(last=False)
                            if dirty:
                                dc_wbk += 1
                                extra += dc_wbpen
                        way[tag] = True
                        dc_last[si] = tag
                        m_wait = extra
                        dstalls += extra
                else:
                    m_wait = 0

            # ---- EX: first-cycle work (may squash and redirect) ----
            if e_d is not None and not e_done:
                e_done = True
                d = e_d
                k = d.exk
                if 1 <= k <= 3:                     # ALU_RRR/SHIFT_I/ALU_RRI
                    rr = d.rs
                    if rr == 0:
                        a = 0
                    elif rr == m_dest:
                        a = m_res
                    else:
                        a = regs[rr]
                    if k == 3:
                        b2 = d.imm
                    elif k == 2:
                        b2 = d.shamt
                    else:
                        rr = d.rt
                        if rr == 0:
                            b2 = 0
                        elif rr == m_dest:
                            b2 = m_res
                        else:
                            b2 = regs[rr]
                    ak = d.aluk
                    if ak == 1:                     # add/addu
                        e_res = (a + b2) & 4294967295
                    elif ak == 3:                   # and
                        e_res = a & b2
                    elif ak == 4:                   # or
                        e_res = a | b2
                    elif ak == 2:                   # sub/subu
                        e_res = (a - b2) & 4294967295
                    elif ak == 8:                   # sll
                        e_res = (a << (b2 & 31)) & 4294967295
                    elif ak == 9:                   # srl
                        e_res = (a & 4294967295) >> (b2 & 31)
                    elif ak == 6:                   # slt (sign-bias trick)
                        e_res = (1 if ((a & 4294967295) ^ 2147483648)
                                 < ((b2 & 4294967295) ^ 2147483648)
                                 else 0)
                    elif ak == 7:                   # sltu
                        e_res = (1 if (a & 4294967295)
                                 < (b2 & 4294967295) else 0)
                    elif ak == 5:                   # xor
                        e_res = a ^ b2
                    else:                           # sra/mul/div/rem/nor
                        e_res = d.alu(a, b2)
                elif k == 5:                        # LOAD
                    rr = d.rs
                    if rr == 0:
                        a = 0
                    elif rr == m_dest:
                        a = m_res
                    else:
                        a = regs[rr]
                    e_addr = (a + d.imm) & 4294967295
                elif k == 8 or k == 7:              # BRANCH_Z / BRANCH_CMP
                    rr = d.rs
                    if rr == 0:
                        a = 0
                    elif rr == m_dest:
                        a = m_res
                    else:
                        a = regs[rr]
                    if k == 8:
                        ck = d.condk
                        if ck == 1:                 # ==0
                            taken = a == 0
                        elif ck == 2:               # !=0
                            taken = a != 0
                        elif ck == 3:               # <0
                            taken = a >= 2147483648
                        elif ck == 4:               # <=0
                            taken = a == 0 or a >= 2147483648
                        elif ck == 5:               # >0
                            taken = 0 < a < 2147483648
                        elif ck == 6:               # >=0
                            taken = a < 2147483648
                        else:
                            taken = d.cond(a)
                    else:
                        rr = d.rt
                        if rr == 0:
                            bb = 0
                        elif rr == m_dest:
                            bb = m_res
                        else:
                            bb = regs[rr]
                        taken = (a == bb) == d.eq_sense
                    target = d.br_target
                    actual = target if taken else d.pc4
                    branches += 1
                    if pmode == 2:                  # bimodal, inlined
                        pp = e_pc
                        pi = (pp >> 2) & p_mask
                        c = counters[pi]
                        if taken:
                            if c < 3:
                                counters[pi] = c + 1
                            bi = (pp >> 2) & b_mask
                            btb_tags[bi] = pp
                            btb_targets[bi] = target
                        elif c > 0:
                            counters[pi] = c - 1
                    elif pmode == 0:
                        pred_update(e_pc, taken, target)
                    # pmode == 1: not-taken update is a no-op
                    if actual != e_pr:
                        mispredicts += 1
                        # EX redirect: squash the two younger stages
                        if i_d is not None:
                            squashed += 1
                            ar = i_acq
                            if ar is not None:
                                if bcnt[ar] <= 0:
                                    raise RuntimeError(
                                        "BDT cancel without acquire on r%d"
                                        % ar)
                                bcnt[ar] -= 1
                                i_acq = None
                            i_d = None
                        if f_d is not None:
                            squashed += 1
                            f_d = None
                        if_wait = 0
                        fetch_pc = actual
                        suppress = True
                        fetch_halted = False
                elif k == 6:                        # STORE
                    rr = d.rs
                    if rr == 0:
                        a = 0
                    elif rr == m_dest:
                        a = m_res
                    else:
                        a = regs[rr]
                    rr = d.rt
                    if rr == 0:
                        bb = 0
                    elif rr == m_dest:
                        bb = m_res
                    else:
                        bb = regs[rr]
                    e_addr = (a + d.imm) & 4294967295
                    e_sv = bb
                elif k == 4:                        # LUI
                    e_res = d.result_const
                elif k == 9:                        # JAL
                    e_res = d.pc4
                elif k == 10 or k == 11:            # JR / JALR
                    if k == 11:
                        e_res = d.pc4
                    rr = d.rs
                    if rr == 0:
                        a = 0
                    elif rr == m_dest:
                        a = m_res
                    else:
                        a = regs[rr]
                    if i_d is not None:
                        squashed += 1
                        ar = i_acq
                        if ar is not None:
                            if bcnt[ar] <= 0:
                                raise RuntimeError(
                                    "BDT cancel without acquire on r%d"
                                    % ar)
                            bcnt[ar] -= 1
                            i_acq = None
                        i_d = None
                    if f_d is not None:
                        squashed += 1
                        f_d = None
                    if_wait = 0
                    fetch_pc = a
                    suppress = True
                    fetch_halted = False
                    jr_redirects += 1
                # else k == 0: JUMP/HALT/CTL — nothing to compute

            # ---- ID: first-cycle work (jump redirect, BDT acquire) -
            if i_d is not None and not i_done:
                i_done = True
                d = i_d
                if asbr_on:
                    dest = d.dest
                    if dest is not None and dest != 0:
                        c = bcnt[dest]
                        if c >= cmax:
                            raise OverflowError(
                                "BDT validity counter overflow on r%d "
                                "(more than %d in-flight producers)"
                                % (dest, cmax))
                        bcnt[dest] = c + 1
                        i_acq = dest
                if d.is_halt:
                    fetch_halted = True
                elif d.is_jump:
                    if f_d is not None:
                        squashed += 1
                        f_d = None
                    if_wait = 0
                    fetch_pc = d.jump_target
                    suppress = True
                    jump_bubbles += 1

            # ---- IF: start a new fetch -----------------------------
            if f_d is None and not suppress and not fetch_halted:
                pc = fetch_pc
                if not (pc & 3) and base <= pc < end:
                    d = dec[(pc - base) >> 2]
                    tag = pc >> ic_shift
                    si = tag & ic_smask
                    ic_acc += 1
                    if ic_last[si] == tag:          # already MRU: hit
                        if_wait = 0
                    else:
                        way = ic_sets[si]
                        if tag in way:
                            way.move_to_end(tag)
                            ic_last[si] = tag
                            if_wait = 0
                        else:
                            ic_miss += 1
                            extra = ic_pen
                            if len(way) >= ic_assoc:
                                _victim, dirty = way.popitem(last=False)
                                if dirty:
                                    ic_wbk += 1
                                    extra += ic_wbpen
                            way[tag] = False
                            ic_last[si] = tag
                            if_wait = extra
                            istalls += extra
                    uf = d.uncond_fold
                    if uf is not None:
                        td, tpc, next_pc = uf
                        f_d = td
                        f_pc = tpc
                        f_fo = False
                        f_uf = True
                        fetched += 1
                        fetch_pc = next_pc
                    elif d.is_branch:
                        t = fold_map.get(pc) if asbr_on else None
                        if t is not None:
                            # compiled try_fold: BIT hit; check the
                            # shadow validity counter, then thread to
                            # the pre-decoded replacement chain
                            creg = t[0]
                            if bcnt[creg]:
                                f_inv += 1
                                t = None
                            else:
                                per_pc[pc] = per_pc.get(pc, 0) + 1
                                if t[1][bcls[creg]]:
                                    f_taken += 1
                                    f_d = t[2]
                                    f_pc = t[3]
                                    fetch_pc = t[4]
                                else:
                                    f_nt += 1
                                    f_d = t[5]
                                    f_pc = t[6]
                                    fetch_pc = t[7]
                                f_fo = True
                                f_uf = False
                                fetched += 1
                        if t is None:
                            lookups += 1
                            if pmode == 2:          # bimodal, inlined
                                if counters[(pc >> 2) & p_mask] >= 2:
                                    bi = (pc >> 2) & b_mask
                                    pt = (btb_targets[bi]
                                          if btb_tags[bi] == pc else None)
                                else:
                                    pt = None
                            elif pmode == 1:        # not-taken
                                pt = None
                            else:
                                pred = pred_predict(pc)
                                pt = (pred.target if pred.taken
                                      and pred.target is not None else None)
                            f_d = d
                            f_pc = pc
                            f_fo = False
                            f_uf = False
                            f_pr = pt if pt is not None else d.pc4
                            fetched += 1
                            fetch_pc = f_pr
                    else:
                        f_d = d
                        f_pc = pc
                        f_fo = False
                        f_uf = False
                        fetched += 1
                        fetch_pc = d.pc4

            # ---- advance latches downstream-first ------------------
            # MEM -> WB
            if m_d is not None and m_done:
                if m_wait > 0:
                    m_wait -= 1
                else:
                    ar = m_acq
                    if ar is not None and (rel_mem
                                           or (rel_ex and m_d.is_load)):
                        pending.append((ar, m_res))
                        m_acq = None
                    w_d = m_d
                    w_pc = m_pc
                    w_fo = m_fo
                    w_uf = m_uf
                    w_acq = m_acq
                    w_res = m_res
                    m_d = None
                    m_dest = -1

            # EX -> MEM (the load-use interlock below still checks the
            # instruction that spent this cycle in EX, so keep its d)
            exd0 = e_d
            if e_d is not None and e_done and m_d is None:
                ar = e_acq
                if rel_ex and ar is not None and not e_d.is_load:
                    pending.append((ar, e_res))
                    ar = None
                m_d = e_d
                m_pc = e_pc
                m_fo = e_fo
                m_uf = e_uf
                m_acq = ar
                m_done = False
                m_res = e_res
                m_addr = e_addr
                m_sv = e_sv
                dd = e_d.dest
                m_dest = dd if dd is not None else -1
                e_d = None

            # ID -> EX (load-use interlock against this cycle's EX)
            if i_d is not None and i_done and e_d is None:
                if exd0 is not None and exd0.is_load:
                    if exd0.dest_mask & i_d.src_mask:
                        load_use += 1
                    else:
                        e_d = i_d
                        e_pc = i_pc
                        e_fo = i_fo
                        e_uf = i_uf
                        e_pr = i_pr
                        e_acq = i_acq
                        e_done = False
                        i_d = None
                else:
                    e_d = i_d
                    e_pc = i_pc
                    e_fo = i_fo
                    e_uf = i_uf
                    e_pr = i_pr
                    e_acq = i_acq
                    e_done = False
                    i_d = None

            # IF -> ID
            if f_d is not None:
                if if_wait > 0:
                    if_wait -= 1
                elif i_d is None:
                    i_d = f_d
                    i_pc = f_pc
                    i_fo = f_fo
                    i_uf = f_uf
                    i_pr = f_pr
                    i_acq = None
                    i_done = False
                    f_d = None

            # ---- apply deferred BDT releases (compiled): decrement
            # the shadow counter and store the released value's sign
            # class — update_bits reduced to one list write ------------
            if pending:
                for reg, value in pending:
                    if bcnt[reg] <= 0:
                        raise RuntimeError(
                            "BDT release without acquire on r%d" % reg)
                    bcnt[reg] -= 1
                    v = value & 4294967295
                    bcls[reg] = (0 if v == 0
                                 else (2 if v >= 2147483648 else 1))
                    btouched[reg] = True
                del pending[:]
    finally:
        stats.cycles = cycles
        stats.committed = committed
        stats.fetched = fetched
        stats.squashed = squashed
        stats.branches = branches
        stats.branch_mispredicts = mispredicts
        stats.folds_committed = folds
        stats.uncond_folds_committed = uncond_folds
        stats.predictor_lookups = lookups
        stats.jump_bubbles = jump_bubbles
        stats.jr_redirects = jr_redirects
        stats.load_use_stalls = load_use
        stats.icache_miss_stalls = istalls
        stats.dcache_miss_stalls = dstalls
        ic_stats.accesses = ic_acc
        ic_stats.misses = ic_miss
        ic_stats.writebacks = ic_wbk
        dc_stats.accesses = dc_acc
        dc_stats.misses = dc_miss
        dc_stats.writebacks = dc_wbk
        # write the shadow BDT back into the real table: counters
        # always, direction bits for every register that saw a release
        if asbr_on:
            for r, e in enumerate(bdt_entries):
                e.counter = bcnt[r]
                if btouched[r]:
                    c = bcls[r]
                    b = e.bits
                    b[Condition.EQZ] = c == 0
                    b[Condition.NEZ] = c != 0
                    b[Condition.LTZ] = c == 2
                    b[Condition.LEZ] = c != 1
                    b[Condition.GTZ] = c == 1
                    b[Condition.GEZ] = c != 2
            fstats.folded_taken = f_taken
            fstats.folded_not_taken = f_nt
            fstats.invalid_fallbacks = f_inv
        # rebuild real slots so exception paths and inspection observe
        # the interpreted loop's state
        if f_d is not None:
            s = _Slot(f_d, f_pc)
            s.folded = f_fo
            s.uncond_folded = f_uf
            s.pred_next_pc = f_pr
            sim.s_if = s
        else:
            sim.s_if = None
        if i_d is not None:
            s = _Slot(i_d, i_pc)
            s.folded = i_fo
            s.uncond_folded = i_uf
            s.pred_next_pc = i_pr
            s.acquired_reg = i_acq
            s.id_done = i_done
            sim.s_id = s
        else:
            sim.s_id = None
        if e_d is not None:
            s = _Slot(e_d, e_pc)
            s.folded = e_fo
            s.uncond_folded = e_uf
            s.pred_next_pc = e_pr
            s.acquired_reg = e_acq
            s.ex_done = e_done
            s.result = e_res
            s.mem_addr = e_addr
            s.store_val = e_sv
            sim.s_ex = s
        else:
            sim.s_ex = None
        if m_d is not None:
            s = _Slot(m_d, m_pc)
            s.folded = m_fo
            s.uncond_folded = m_uf
            s.acquired_reg = m_acq
            s.mem_done = m_done
            s.mem_wait = m_wait
            s.result = m_res
            s.mem_addr = m_addr
            s.store_val = m_sv
            sim.s_mem = s
        else:
            sim.s_mem = None
        if w_d is not None:
            s = _Slot(w_d, w_pc)
            s.folded = w_fo
            s.uncond_folded = w_uf
            s.acquired_reg = w_acq
            s.result = w_res
            sim.s_wb = s
        else:
            sim.s_wb = None
        sim.if_wait = if_wait
        sim.fetch_pc = fetch_pc
        sim._fetch_halted = fetch_halted
        sim._suppress_fetch = suppress
        if halted:
            sim.halted = True
    return stats
