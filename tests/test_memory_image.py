"""Locks for how a run's memory image and stimulus are made.

Every image starts as ``MainMemory(program.data)``, one C-level copy of
the data segment, where it used to be written word by word.  The old
loops are kept here as the oracle: a workload's ``memory_image``, and
both simulators' own images when no memory is passed, must snapshot
exactly as they did, ``.space`` zeros included.  An image is private:
writing to it reaches neither the program nor the next image.  The copy
relies on the assembler emitting word-aligned data, so an unaligned
``data_base`` is refused before anything runs.  ``speech_like`` is
memoised per process and still hands each caller its own list.
"""

import pytest

from repro.asm import assemble
from repro.asm.assembler import Assembler, AssemblerError
from repro.memory.main_memory import MainMemory
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import OoOSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.workloads import get_workload, inputs, speech_like
from repro.workloads.loader import WORKLOAD_NAMES


# ----------------------------------------------------------------------
# the oracle: images written word by word
# ----------------------------------------------------------------------
def reference_image(wl, pcm) -> MainMemory:
    """``Workload.memory_image`` as the data-segment loop built it."""
    stream = wl.prepare_input(pcm)
    count = wl.count_fn(pcm)
    prog = wl.program
    mem = MainMemory()
    mem.load_words(prog.data.items())
    mem.write_word(prog.address_of("n_samples"),
                   len(stream) if count is None else count)
    base = prog.address_of(wl.input_label)
    width = wl.input_width
    for i, v in enumerate(stream):
        mem.write(base + i * width, v & ((1 << (8 * width)) - 1), width)
    return mem


def reference_program_image(program) -> MainMemory:
    """A simulator's own image: data segment, then the text image."""
    mem = MainMemory()
    for addr, word in program.data.items():
        mem.write_word(addr, word)
    for i, word in enumerate(program.words):
        mem.write_word(program.pc_of(i), word)
    return mem


@pytest.mark.parametrize("n", [60, 400])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_memory_image_matches_word_loop(name, n):
    wl = get_workload(name)
    pcm = speech_like(n, 7)
    mem, _ = wl.memory_image(pcm)
    assert mem.snapshot() == reference_image(wl, pcm).snapshot()
    assert len(mem) >= len(wl.program.data)        # .space zeros kept


def test_image_writes_stay_private():
    wl = get_workload("adpcm_enc")
    pcm = speech_like(60, 7)
    data = dict(wl.program.data)
    first, _ = wl.memory_image(pcm)
    pristine = first.snapshot()
    addr = next(iter(data))
    first.write_word(addr, data[addr] ^ 0xFFFF)
    first.write(addr + 4, 0xAB, 1)
    first.write_word(0x7FFF0000, 5)              # outside the segment
    assert wl.program.data == data
    assert wl.memory_image(pcm)[0].snapshot() == pristine


@pytest.mark.parametrize("name", ["adpcm_enc", "huffman_dec", "g721_dec"])
def test_default_images_match_word_loops(name):
    prog = get_workload(name).program
    want = reference_program_image(prog).snapshot()
    for sim in (FunctionalSimulator(prog), PipelineSimulator(prog),
                OoOSimulator(prog)):
        assert sim.memory.snapshot() == want, type(sim).__name__
        sim.memory.write_word(next(iter(prog.data)), 0xDEAD)
    assert FunctionalSimulator(prog).memory.snapshot() == want


@pytest.mark.parametrize("data_base", [0x10000002, 0x10000001, -4,
                                       1 << 32])
def test_bad_data_base_refused_before_running(data_base):
    with pytest.raises(AssemblerError, match="data_base"):
        Assembler(data_base=data_base)
    with pytest.raises(AssemblerError, match="data_base"):
        assemble(".data\nx: .word 1\n.text\nmain: halt\n",
                 data_base=data_base)


def test_data_segment_must_end_in_32_bits():
    src = ".data\nx: .space %d\n.text\nmain: halt\n"
    prog = assemble(src % 16, data_base=0xFFFFFFF0)
    assert max(prog.data) == 0xFFFFFFFC
    with pytest.raises(AssemblerError, match="past 0xffffffff"):
        assemble(src % 20, data_base=0xFFFFFFF0)


# ----------------------------------------------------------------------
# stimulus memo
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(inputs, "_SPEECH_MEMO", memo)
    return memo


def test_speech_like_lists_are_equal_but_distinct(fresh_memo):
    a = speech_like(64, 3)
    b = speech_like(64, 3)
    assert a == b and a is not b
    want = list(a)
    a[0] += 1
    a.append(0)
    assert speech_like(64, 3) == want
    assert len(fresh_memo) == 1


def test_speech_like_memo_stays_under_cap(fresh_memo):
    first = speech_like(16, 0)
    for seed in range(inputs._SPEECH_MEMO_CAP + 3):
        speech_like(16, seed)
        assert len(fresh_memo) <= inputs._SPEECH_MEMO_CAP
    assert speech_like(16, 0) == first


def test_speech_like_memo_keys_on_amplitude(fresh_memo):
    loud = speech_like(32, 3)
    quiet = speech_like(32, 3, amplitude=100)
    assert quiet != loud and max(abs(v) for v in quiet) <= 100
    assert speech_like(32, 3) == loud
