"""The fault injector: arm one bit flip, fire it at one cycle.

Zero-overhead design
--------------------
Injection costs nothing unless it is armed: :meth:`FaultInjector.attach`
wraps ``sim.tick`` *on that one instance* before the run starts, so a
fault-free simulator keeps its fast path byte for byte.  The wrapper
composes with tracing: a traced simulator runs the same ``tick``, whose
guarded emit sites are live, and the wrapper calls it first, then
fires the fault.  ``PipelineSimulator.run``
reads ``self.tick`` once before its loop, which is why the wrap must
happen at construction time (the workload harness's ``on_sim`` hook)
and why the fired injector keeps a one-flag check per cycle instead of
unbinding itself mid-run.

Protection semantics
--------------------
* ``none``   — the flip really lands in the table.  Whatever the
  machine does next (wrong-direction fold, fold to a garbage target,
  a validity-counter protocol violation) is the experiment's result;
  protocol violations surface as the simulator's own exceptions and the
  campaign classifies them as SDC (crash).
* ``parity`` — the flip is *latent*: the entry is marked dirty and
  detected at the next read.  A dirty BDT/BIT read behaves exactly like
  the architected miss path (``lookup`` returns None → fold suppressed
  → auxiliary predictor takes over); a rewrite of the entry clears the
  dirty bit, as recomputing parity would.  A dirty PHT counter is reset
  to its power-on value — parity cannot restore a counter, but a reset
  counter is merely a cold predictor, never a wrong fold.
* ``ecc``    — the flip is corrected at first read; every read observes
  the fault-free value, so the run is bit-identical to the reference.

When the simulator carries a telemetry tracer, the injector emits
``fault_inject`` / ``fault_detect`` / ``fault_correct`` events into the
same stream, so campaign activity shows up in pipeline timelines and
metric tables like any other microarchitectural occurrence.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.faults.model import (
    BDT_CNT,
    BDT_DIR,
    BIT_FIELD,
    CONDITION_ORDER,
    PRED_PHT,
    PROTECTIONS,
    FaultSpec,
)
from repro.isa.conditions import Condition
from repro.isa.encoding import decode

#: power-on value of a 2-bit saturating PHT counter (weak not-taken)
_PHT_RESET = 1


class FaultInducedError(RuntimeError):
    """A corrupted field decoded to something the machine cannot mean
    (an undefined condition encoding, an undecodable replacement
    word).  Raised mid-run and classified as SDC (crash)."""


class FaultInjector:
    """Arms one :class:`~repro.faults.model.FaultSpec` on one simulator.

    Use as the workload harness's construction hook::

        inj = FaultInjector(spec, protection="parity")
        wl.run_pipeline(pcm, predictor=p, asbr=unit, on_sim=inj.attach)

    After the run, ``fired`` says whether the fault's cycle was reached
    and the counters say what the protection machinery observed.
    """

    def __init__(self, spec: FaultSpec, protection: str = "none") -> None:
        if protection not in PROTECTIONS:
            raise ValueError("unknown protection %r (have: %s)"
                             % (protection, ", ".join(PROTECTIONS)))
        self.spec = spec
        self.protection = protection
        self.fired = False
        self.detections = 0          # parity/ecc reads that saw the flip
        self.corrections = 0         # ecc reads that repaired it
        self.suppressed_folds = 0    # parity reads that fell back
        self.events: List[Tuple[int, str, str]] = []   # (cycle, kind, label)

    # ------------------------------------------------------------------
    def attach(self, sim):
        """Wrap ``sim.tick`` so the fault fires at its cycle.

        Returns ``sim`` so it can be passed directly as the harness's
        ``on_sim`` callback.
        """
        base_tick = sim.tick
        fire_at = self.spec.cycle
        armed = [True]

        def tick_with_fault():
            base_tick()
            if armed[0] and sim.stats.cycles >= fire_at:
                armed[0] = False
                self._fire(sim)

        sim.tick = tick_with_fault
        return sim

    # ------------------------------------------------------------------
    def _fire(self, sim) -> None:
        self.fired = True
        self._note(sim, "fault_inject")
        site = self.spec.site
        if site.structure == PRED_PHT:
            self._fire_pred(sim)
        elif self.protection == "none":
            self._corrupt(sim)
        else:
            self._guard(sim)

    def _note(self, sim, kind: str) -> None:
        cycle = sim.stats.cycles
        label = self.spec.site.label()
        self.events.append((cycle, kind, label))
        tracer = getattr(sim, "trace", None)
        if tracer is not None:
            from repro.telemetry.events import TraceEvent
            tracer.emit(TraceEvent(cycle, kind,
                                   data={"site": label,
                                         "protection": self.protection}))

    # ------------------------------------------------------------------
    # unprotected: the flip lands in the table
    # ------------------------------------------------------------------
    def _corrupt(self, sim) -> None:
        site = self.spec.site
        asbr = sim.asbr
        if asbr is None:
            return                    # no table to strike: trivially masked
        if site.structure == BDT_DIR:
            entry = asbr.bdt.entries[site.index]
            cond = Condition[site.field]
            entry.bits[cond] = not entry.bits[cond]
        elif site.structure == BDT_CNT:
            asbr.bdt.entries[site.index].counter ^= (1 << site.bit)
        elif site.structure == BIT_FIELD:
            self._corrupt_bit_entry(asbr.bit, site)

    @staticmethod
    def _find_bit_entry(banked, pc: int):
        for bank in banked.banks:
            e = bank.lookup(pc)
            if e is not None:
                return bank, e
        return None, None

    def _corrupt_bit_entry(self, banked, site) -> None:
        bank, e = self._find_bit_entry(banked, site.index)
        if e is None:
            return                    # entry evicted/absent: masked
        mask = 1 << site.bit
        if site.field == "tag":
            # the entry now answers for a different (garbage) PC
            new_pc = e.pc ^ mask
            del bank._by_pc[e.pc]
            e.pc = new_pc
            bank._by_pc[new_pc] = e
        elif site.field == "bta":
            e.bta ^= mask
        elif site.field in ("bti", "bfi"):
            word = getattr(e, site.field + "_word") ^ mask
            setattr(e, site.field + "_word", word)
            try:
                setattr(e, site.field, decode(word))
            except Exception as exc:
                raise FaultInducedError(
                    "corrupted %s word of BIT[0x%x] is undecodable: %s"
                    % (site.field.upper(), site.index, exc))
        elif site.field == "di_reg":
            e.cond_reg ^= mask        # 5 bits: stays a register number
        elif site.field == "di_cond":
            i = CONDITION_ORDER.index(e.condition) ^ mask
            if i >= len(CONDITION_ORDER):
                raise FaultInducedError(
                    "corrupted DI of BIT[0x%x] encodes no condition (%d)"
                    % (site.index, i))
            e.condition = CONDITION_ORDER[i]

    # ------------------------------------------------------------------
    # parity / ECC: latent flip, observed at read time
    # ------------------------------------------------------------------
    def _guard(self, sim) -> None:
        site = self.spec.site
        asbr = sim.asbr
        if asbr is None:
            return
        if site.structure in (BDT_DIR, BDT_CNT):
            self._guard_bdt(sim, asbr.bdt, site)
        elif site.structure == BIT_FIELD:
            self._guard_bit(sim, asbr.bit, site)

    def _guard_bdt(self, sim, bdt, site) -> None:
        reg = site.index
        dirty = [True]
        parity = self.protection == "parity"
        base_lookup = bdt.lookup
        base_release = bdt.release

        def lookup(r, cond):
            if r == reg and dirty[0]:
                self.detections += 1
                if parity:
                    self.suppressed_folds += 1
                    self._note(sim, "fault_detect")
                    return None       # miss path: predictor takes over
                dirty[0] = False
                self.corrections += 1
                self._note(sim, "fault_correct")
            return base_lookup(r, cond)

        def release(r, value):
            base_release(r, value)
            if r == reg:
                dirty[0] = False      # entry rewritten; parity recomputed

        bdt.lookup = lookup
        bdt.release = release
        if site.structure == BDT_CNT:
            # counter faults also clear on the counter's own updates
            base_acquire = bdt.acquire
            base_cancel = bdt.cancel

            def acquire(r):
                base_acquire(r)
                if r == reg:
                    dirty[0] = False

            def cancel(r):
                base_cancel(r)
                if r == reg:
                    dirty[0] = False

            bdt.acquire = acquire
            bdt.cancel = cancel

    def _guard_bit(self, sim, banked, site) -> None:
        _bank, target = self._find_bit_entry(banked, site.index)
        if target is None:
            return
        dirty = [True]
        parity = self.protection == "parity"
        base_lookup = banked.lookup

        def lookup(pc):
            e = base_lookup(pc)
            if e is target and dirty[0]:
                self.detections += 1
                if parity:
                    self.suppressed_folds += 1
                    self._note(sim, "fault_detect")
                    return None       # fold suppressed, never wrong
                dirty[0] = False
                self.corrections += 1
                self._note(sim, "fault_correct")
            return e

        banked.lookup = lookup

    # ------------------------------------------------------------------
    # predictor PHT: self-correcting state
    # ------------------------------------------------------------------
    def _fire_pred(self, sim) -> None:
        site = self.spec.site
        counters = getattr(sim.predictor, "_counters", None)
        if counters is None or site.index >= len(counters):
            return
        if self.protection == "none":
            counters[site.index] ^= (1 << site.bit)
        elif self.protection == "parity":
            # parity cannot restore the counter; reset to power-on
            counters[site.index] = _PHT_RESET
            self.detections += 1
            self._note(sim, "fault_detect")
        else:                          # ecc: corrected in place
            self.detections += 1
            self.corrections += 1
            self._note(sim, "fault_correct")
