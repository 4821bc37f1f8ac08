"""Workload harness: assemble a codec, feed it inputs, collect outputs.

Each :class:`Workload` binds an assembly source to its memory interface
(the ``n_samples`` count plus input/output buffer labels) and to the
golden model that defines its correct output.  The harness writes the
input stream into simulator memory exactly where the program's
``.space`` reservation lives, runs either simulator, and reads the
output stream back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.memory.main_memory import MainMemory
from repro.sim.functional import FunctionalSimulator
from repro.sim.pipeline import (PipelineConfig, PipelineSimulator,
                                PipelineStats)
from repro.workloads import golden, huffman

#: Capacity of the .space reservations in the assembly sources.
MAX_SAMPLES = 16384

_ASM_DIR = os.path.join(os.path.dirname(__file__), "asm")


def _to_u16(v: int) -> int:
    return v & 0xFFFF


def _from_s16(v: int) -> int:
    v &= 0xFFFF
    return v - 0x10000 if v & 0x8000 else v


@dataclass
class WorkloadResult:
    """Output stream plus the statistics of the run that produced it."""

    outputs: List[int]
    stats: Optional[PipelineStats] = None     # None for functional runs
    instructions: int = 0


class Workload:
    """One benchmark program with its I/O conventions."""

    def __init__(self, name: str, asm_file: str,
                 input_label: str, input_width: int,
                 output_label: str, output_width: int,
                 golden_fn: Callable[[Sequence[int]], List[int]],
                 prepare_input: Callable[[Sequence[int]], List[int]],
                 count_fn: Optional[Callable[[Sequence[int]], int]]
                 = None) -> None:
        self.name = name
        self.asm_file = asm_file
        self.input_label = input_label
        self.input_width = input_width       # bytes per input element
        self.output_label = output_label
        self.output_width = output_width     # bytes per output element
        self.golden_fn = golden_fn
        # maps raw PCM test stimulus to this program's input stream
        # (decoders consume the matching encoder's output)
        self.prepare_input = prepare_input
        # value of the program's n_samples word and the output length;
        # defaults to the input-stream length (codecs are 1:1), but
        # e.g. the Huffman decoder consumes a bitstream whose length
        # differs from the symbol count it produces
        self.count_fn = count_fn if count_fn is not None \
            else (lambda pcm: None)
        self._program: Optional[Program] = None

    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        """The assembled program (cached)."""
        if self._program is None:
            path = os.path.join(_ASM_DIR, self.asm_file)
            with open(path) as f:
                self._program = assemble(f.read())
        return self._program

    # ------------------------------------------------------------------
    def build_memory(self, stream: Sequence[int],
                     count: Optional[int] = None) -> MainMemory:
        """Memory image with ``stream`` written to the input buffer.

        ``count`` overrides the program's ``n_samples`` word (defaults
        to the stream length).
        """
        if len(stream) > MAX_SAMPLES:
            raise ValueError("%d elements exceed buffer capacity %d"
                             % (len(stream), MAX_SAMPLES))
        prog = self.program
        mem = MainMemory()
        mem.load_words(prog.data.items())     # static tables first
        n = count if count is not None else len(stream)
        mem.write_word(prog.address_of("n_samples"), n)
        base = prog.address_of(self.input_label)
        width = self.input_width
        for i, v in enumerate(stream):
            mem.write(base + i * width, v & ((1 << (8 * width)) - 1), width)
        return mem

    def memory_image(self, pcm: Sequence[int]) -> Tuple[MainMemory, int]:
        """Memory image for raw PCM stimulus ``pcm``, and the number of
        output elements the program writes for it.

        The one place a stimulus becomes a memory image: prepare the
        input stream, take the workload's count (the Huffman decoder's
        symbol count, not its bitstream length; the stream length for
        the 1:1 codecs) and :meth:`build_memory` both.  Simulation and
        profiling call it alike, so a profile sees the run it selects
        branches for.
        """
        stream = self.prepare_input(pcm)
        count = self.count_fn(pcm)
        if count is None:
            count = len(stream)
        return self.build_memory(stream, count), count

    def read_output(self, memory: MainMemory, n: int) -> List[int]:
        """Output stream of ``n`` elements, sign-corrected."""
        base = self.program.address_of(self.output_label)
        width = self.output_width
        out = []
        for i in range(n):
            raw = memory.read(base + i * width, width)
            out.append(_from_s16(raw) if width == 2 else raw)
        return out

    def golden_output(self, pcm: Sequence[int]) -> List[int]:
        """Expected output for raw PCM stimulus ``pcm``.

        Workloads with a custom ``count_fn`` have golden models that
        need the output count as well (e.g. a bitstream decoder); their
        ``golden_fn`` is called as ``golden_fn(stream, count)``.
        """
        stream = self.prepare_input(pcm)
        count = self.count_fn(pcm)
        if count is not None:
            return self.golden_fn(stream, count)
        return self.golden_fn(stream)

    # ------------------------------------------------------------------
    def run_functional(self, pcm: Sequence[int],
                       max_instructions: int = 500_000_000
                       ) -> WorkloadResult:
        memory, count = self.memory_image(pcm)
        sim = FunctionalSimulator(self.program, memory)
        n = sim.run(max_instructions=max_instructions)
        return WorkloadResult(self.read_output(sim.memory, count),
                              instructions=n)

    def run_pipeline(self, pcm: Sequence[int], predictor=None, asbr=None,
                     config: Optional[PipelineConfig] = None,
                     trace=None, on_sim=None,
                     frontend=None) -> WorkloadResult:
        """``trace`` (a :class:`repro.telemetry.Tracer`) enables the
        pipeline's telemetry hooks for this run; None costs nothing.

        ``frontend`` (a :class:`repro.frontend.FrontendConfig` or None)
        attaches the decoupled front end for this run.

        ``on_sim`` is called with the constructed simulator before the
        run starts — the instrumentation window for layers that rebind
        instance methods (e.g. :class:`repro.faults.FaultInjector`),
        which must happen before ``run()`` captures ``tick``.
        """
        memory, count = self.memory_image(pcm)
        sim = PipelineSimulator(self.program, memory,
                                predictor=predictor, asbr=asbr,
                                config=config, trace=trace,
                                frontend=frontend)
        if on_sim is not None:
            on_sim(sim)
        stats = sim.run()
        return WorkloadResult(self.read_output(sim.memory, count),
                              stats=stats, instructions=stats.committed)

    def run_ooo(self, pcm: Sequence[int], predictor=None, asbr=None,
                config=None, trace=None, on_sim=None,
                frontend=None) -> WorkloadResult:
        """Run on the out-of-order backend (:mod:`repro.sim.ooo`).

        Same contract as :meth:`run_pipeline`; ``config`` is an
        :class:`repro.sim.ooo.OoOConfig` and ``frontend`` a
        :class:`repro.frontend.FrontendConfig` — the decoupled front
        end attaches to the OoO machine through the same interface.
        """
        from repro.sim.ooo import OoOSimulator
        memory, count = self.memory_image(pcm)
        sim = OoOSimulator(self.program, memory,
                           predictor=predictor, asbr=asbr,
                           config=config, trace=trace,
                           frontend=frontend)
        if on_sim is not None:
            on_sim(sim)
        stats = sim.run()
        return WorkloadResult(self.read_output(sim.memory, count),
                              stats=stats, instructions=stats.committed)

    def input_stream(self, pcm: Sequence[int]) -> List[int]:
        """The program-level input stream for raw PCM stimulus."""
        return self.prepare_input(pcm)

    def with_program(self, program: Program,
                     suffix: str = "-sched") -> "Workload":
        """A clone running a transformed program (e.g. after scheduling).

        The transformed program must preserve labels and data layout,
        which :func:`repro.sched.schedule_program` guarantees.
        """
        clone = Workload(self.name + suffix, self.asm_file,
                         input_label=self.input_label,
                         input_width=self.input_width,
                         output_label=self.output_label,
                         output_width=self.output_width,
                         golden_fn=self.golden_fn,
                         prepare_input=self.prepare_input)
        clone.count_fn = self.count_fn
        clone._program = program
        return clone


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def _adpcm_codes(pcm: Sequence[int]) -> List[int]:
    return golden.adpcm_encode(pcm)[0]


def _g721_codes(pcm: Sequence[int]) -> List[int]:
    return golden.g721_encode(pcm)[0]


def _list_scheduled() -> Workload:
    """``adpcm_enc_unsched`` after the local list scheduler
    (:func:`repro.sched.schedule_program`): ablation A3's middle row,
    registered so a :class:`~repro.runner.RunSpec` can name it."""
    from repro.sched import schedule_program
    naive = get_workload("adpcm_enc_unsched")
    wl = naive.with_program(schedule_program(naive.program))
    wl.name = "adpcm_enc_listsched"
    return wl


_REGISTRY = {
    "adpcm_enc": lambda: Workload(
        "adpcm_enc", "adpcm_enc.s",
        input_label="in_buf", input_width=2,
        output_label="code_buf", output_width=1,
        golden_fn=lambda s: golden.adpcm_encode(s)[0],
        prepare_input=list),
    "adpcm_enc_unsched": lambda: Workload(
        "adpcm_enc_unsched", "adpcm_enc_unsched.s",
        input_label="in_buf", input_width=2,
        output_label="code_buf", output_width=1,
        golden_fn=lambda s: golden.adpcm_encode(s)[0],
        prepare_input=list),
    "adpcm_enc_listsched": _list_scheduled,
    "adpcm_dec": lambda: Workload(
        "adpcm_dec", "adpcm_dec.s",
        input_label="code_buf", input_width=1,
        output_label="out_buf", output_width=2,
        golden_fn=lambda s: golden.adpcm_decode(s)[0],
        prepare_input=_adpcm_codes),
    "g721_enc": lambda: Workload(
        "g721_enc", "g721_enc.s",
        input_label="in_buf", input_width=2,
        output_label="code_buf", output_width=1,
        golden_fn=lambda s: golden.g721_encode(s)[0],
        prepare_input=list),
    "g721_dec": lambda: Workload(
        "g721_dec", "g721_dec.s",
        input_label="code_buf", input_width=1,
        output_label="out_buf", output_width=2,
        golden_fn=lambda s: golden.g721_decode(s)[0],
        prepare_input=_g721_codes),
    "huffman_dec": lambda: Workload(
        "huffman_dec", "huffman_dec.s",
        input_label="in_buf", input_width=1,
        output_label="out_buf", output_width=1,
        golden_fn=lambda s, n: huffman.huffman_decode(s, n),
        prepare_input=lambda pcm: huffman.huffman_encode(
            huffman.quantize(pcm)),
        count_fn=len),
}

WORKLOAD_NAMES = tuple(sorted(_REGISTRY))

_CACHE = {}


def get_workload(name: str) -> Workload:
    """Look up a workload by name (``repro.workloads.WORKLOAD_NAMES``)."""
    if name not in _REGISTRY:
        raise KeyError("unknown workload %r (have: %s)"
                       % (name, ", ".join(WORKLOAD_NAMES)))
    if name not in _CACHE:
        _CACHE[name] = _REGISTRY[name]()
    return _CACHE[name]
