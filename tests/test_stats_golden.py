"""Golden-stats regression lock for the cycle-accurate pipeline.

These numbers were produced by the original (pre-fast-path) simulator
and must never drift: any change to ``PipelineSimulator`` that alters a
single cycle, fetch, squash or stall count on these small inputs is a
timing-model change, not an optimisation, and must be reviewed as such.
Every lock runs under the interpreted engine and under the compiled
loop, by both of its names (``"superblocks"``, the default, and its
alias ``"blocks"``), which must reproduce the interpreted numbers
bit-for-bit.

The inputs are deliberately small (96 PCM samples) so the whole module
stays in tier-1.
"""

import dataclasses

import pytest

from repro.asbr import ASBRUnit
from repro.predictors import make_predictor
from repro.profiling import BranchProfiler, select_branches
from repro.workloads import get_workload
from repro.workloads.inputs import speech_like

PCM_N, PCM_SEED = 96, 11

#: (workload, predictor spec, with_asbr) -> full PipelineStats dict,
#: recorded from the seed simulator.  The last eight counters of each
#: entry (cache accesses/misses/writebacks, fetch-time folds and BDT
#: fallbacks) were read off the live ``sim.icache``, ``sim.dcache``
#: and ``sim.asbr`` statistics of interpreted runs before the stats
#: record carried them, so the lock is independent of the code that
#: copies them.
GOLDEN = {
    ("adpcm_enc", "not-taken", False): {
        'cycles': 6402, 'committed': 4542, 'fetched': 5351, 'squashed': 809,
        'branches': 1004, 'branch_mispredicts': 809, 'folds_committed': 0,
        'uncond_folds_committed': 0, 'predictor_lookups': 1004,
        'jump_bubbles': 0, 'jr_redirects': 0, 'load_use_stalls': 0,
        'icache_miss_stalls': 80, 'dcache_miss_stalls': 184,
        'icache_accesses': 5351, 'icache_misses': 10, 'dcache_accesses': 385,
        'dcache_misses': 23, 'dcache_writebacks': 0, 'folded_taken': 0,
        'folded_not_taken': 0, 'invalid_fallbacks': 0},
    ("adpcm_enc", "bimodal-512-512", False): {
        'cycles': 5144, 'committed': 4542, 'fetched': 4722, 'squashed': 180,
        'branches': 1004, 'branch_mispredicts': 180, 'folds_committed': 0,
        'uncond_folds_committed': 0, 'predictor_lookups': 1004,
        'jump_bubbles': 0, 'jr_redirects': 0, 'load_use_stalls': 0,
        'icache_miss_stalls': 80, 'dcache_miss_stalls': 184,
        'icache_accesses': 4722, 'icache_misses': 10, 'dcache_accesses': 385,
        'dcache_misses': 23, 'dcache_writebacks': 0, 'folded_taken': 0,
        'folded_not_taken': 0, 'invalid_fallbacks': 0},
    ("adpcm_enc", "bimodal-512-512", True): {
        'cycles': 4328, 'committed': 4062, 'fetched': 4069, 'squashed': 7,
        'branches': 524, 'branch_mispredicts': 7, 'folds_committed': 480,
        'uncond_folds_committed': 0, 'predictor_lookups': 524,
        'jump_bubbles': 0, 'jr_redirects': 0, 'load_use_stalls': 0,
        'icache_miss_stalls': 80, 'dcache_miss_stalls': 184,
        'icache_accesses': 4069, 'icache_misses': 10, 'dcache_accesses': 385,
        'dcache_misses': 23, 'dcache_writebacks': 0, 'folded_taken': 287,
        'folded_not_taken': 193, 'invalid_fallbacks': 0},
    ("adpcm_dec", "not-taken", False): {
        'cycles': 5374, 'committed': 3525, 'fetched': 4281, 'squashed': 756,
        'branches': 908, 'branch_mispredicts': 756, 'folds_committed': 0,
        'uncond_folds_committed': 0, 'predictor_lookups': 908,
        'jump_bubbles': 0, 'jr_redirects': 0, 'load_use_stalls': 96,
        'icache_miss_stalls': 64, 'dcache_miss_stalls': 192,
        'icache_accesses': 4281, 'icache_misses': 8, 'dcache_accesses': 385,
        'dcache_misses': 24, 'dcache_writebacks': 0, 'folded_taken': 0,
        'folded_not_taken': 0, 'invalid_fallbacks': 0},
    ("adpcm_dec", "bimodal-512-512", False): {
        'cycles': 4150, 'committed': 3525, 'fetched': 3669, 'squashed': 144,
        'branches': 908, 'branch_mispredicts': 144, 'folds_committed': 0,
        'uncond_folds_committed': 0, 'predictor_lookups': 908,
        'jump_bubbles': 0, 'jr_redirects': 0, 'load_use_stalls': 96,
        'icache_miss_stalls': 64, 'dcache_miss_stalls': 192,
        'icache_accesses': 3669, 'icache_misses': 8, 'dcache_accesses': 385,
        'dcache_misses': 24, 'dcache_writebacks': 0, 'folded_taken': 0,
        'folded_not_taken': 0, 'invalid_fallbacks': 0},
    ("adpcm_dec", "bimodal-512-512", True): {
        'cycles': 3492, 'committed': 3141, 'fetched': 3148, 'squashed': 7,
        'branches': 524, 'branch_mispredicts': 7, 'folds_committed': 384,
        'uncond_folds_committed': 0, 'predictor_lookups': 524,
        'jump_bubbles': 0, 'jr_redirects': 0, 'load_use_stalls': 96,
        'icache_miss_stalls': 64, 'dcache_miss_stalls': 192,
        'icache_accesses': 3148, 'icache_misses': 8, 'dcache_accesses': 385,
        'dcache_misses': 24, 'dcache_writebacks': 0, 'folded_taken': 234,
        'folded_not_taken': 150, 'invalid_fallbacks': 0},
    ("g721_enc", "not-taken", False): {
        'cycles': 43688, 'committed': 31943, 'fetched': 36559,
        'squashed': 4616, 'branches': 6057, 'branch_mispredicts': 4616,
        'folds_committed': 0, 'uncond_folds_committed': 0,
        'predictor_lookups': 6057, 'jump_bubbles': 0, 'jr_redirects': 0,
        'load_use_stalls': 1851, 'icache_miss_stalls': 192,
        'dcache_miss_stalls': 518,
        'icache_accesses': 36559, 'icache_misses': 24,
        'dcache_accesses': 5020, 'dcache_misses': 58, 'dcache_writebacks': 27,
        'folded_taken': 0, 'folded_not_taken': 0, 'invalid_fallbacks': 0},
    ("g721_enc", "bimodal-512-512", False): {
        'cycles': 35440, 'committed': 31943, 'fetched': 32435,
        'squashed': 492, 'branches': 6057, 'branch_mispredicts': 492,
        'folds_committed': 0, 'uncond_folds_committed': 0,
        'predictor_lookups': 6057, 'jump_bubbles': 0, 'jr_redirects': 0,
        'load_use_stalls': 1851, 'icache_miss_stalls': 192,
        'dcache_miss_stalls': 518,
        'icache_accesses': 32435, 'icache_misses': 24,
        'dcache_accesses': 5020, 'dcache_misses': 58, 'dcache_writebacks': 27,
        'folded_taken': 0, 'folded_not_taken': 0, 'invalid_fallbacks': 0},
    ("g721_enc", "bimodal-512-512", True): {
        'cycles': 32552, 'committed': 29653, 'fetched': 29842,
        'squashed': 189, 'branches': 3767, 'branch_mispredicts': 189,
        'folds_committed': 2290, 'uncond_folds_committed': 0,
        'predictor_lookups': 3767, 'jump_bubbles': 0, 'jr_redirects': 0,
        'load_use_stalls': 1851, 'icache_miss_stalls': 192,
        'dcache_miss_stalls': 518,
        'icache_accesses': 29842, 'icache_misses': 24,
        'dcache_accesses': 5020, 'dcache_misses': 58, 'dcache_writebacks': 27,
        'folded_taken': 1225, 'folded_not_taken': 1065,
        'invalid_fallbacks': 0},
}


@pytest.fixture(scope="module")
def pcm():
    return speech_like(PCM_N, seed=PCM_SEED)


def _run(pcm, name, pred_spec, with_asbr, engine="interp"):
    wl = get_workload(name)
    asbr = None
    if with_asbr:
        stream = wl.input_stream(pcm)
        count = wl.count_fn(pcm)
        profile = BranchProfiler().profile(wl.program,
                                           wl.build_memory(stream, count))
        sel = select_branches(profile, bit_capacity=16, bdt_update="execute")
        asbr = ASBRUnit.from_branch_infos(sel.infos, capacity=16,
                                          bdt_update="execute")
    result = wl.run_pipeline(pcm, predictor=make_predictor(pred_spec),
                             asbr=asbr, engine=engine)
    assert result.outputs == wl.golden_output(pcm)
    return result.stats


@pytest.mark.parametrize("engine", ["interp", "blocks", "superblocks"])
@pytest.mark.parametrize("key", sorted(GOLDEN),
                         ids=lambda k: "%s-%s-asbr%d" % (k[0], k[1], k[2]))
def test_stats_bit_identical_to_seed(pcm, key, engine):
    name, pred_spec, with_asbr = key
    stats = _run(pcm, name, pred_spec, with_asbr, engine=engine)
    assert dataclasses.asdict(stats) == GOLDEN[key]


def test_derived_metrics_consistent(pcm):
    stats = _run(pcm, "adpcm_enc", "bimodal-512-512", False)
    golden = GOLDEN[("adpcm_enc", "bimodal-512-512", False)]
    assert stats.cpi == pytest.approx(golden["cycles"] / golden["committed"])
    assert stats.branch_accuracy == pytest.approx(
        1.0 - golden["branch_mispredicts"] / golden["branches"])
