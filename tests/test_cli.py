"""Tests for the command-line toolchain."""

import json
import os

import pytest

from repro.cli import build_parser, main

ASM_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "repro", "workloads", "asm")
ADPCM_ENC = os.path.join(ASM_DIR, "adpcm_enc.s")


@pytest.fixture()
def tiny_program(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text("""
.text
main:
    li   r4, 5
    li   r5, 0
loop:
    addu r5, r5, r4
    addi r4, r4, -1
    sll  r0, r0, 0
    sll  r0, r0, 0
br:
    bnez r4, loop
    halt
""")
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sim_defaults(self):
        args = build_parser().parse_args(["sim", "x.s"])
        assert args.predictor == "bimodal-2048"
        assert args.bdt_update == "execute"
        assert not args.asbr

    def test_bad_bdt_update_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim", "x.s", "--bdt-update", "id"])

    def test_experiments_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "fig99"])

    def test_dse_run_defaults(self):
        args = build_parser().parse_args(["dse", "run"])
        assert args.space == "paper"
        assert args.benchmark == "adpcm_enc"
        assert (args.samples, args.seed) == (600, 20010618)
        assert args.search == "grid" and not args.resume
        assert not args.expect_no_new and not args.no_cache
        assert args.plot_x == "table_bits" and args.plot_y == "speedup"

    def test_dse_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse"])

    def test_dse_search_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "run", "--search",
                                       "anneal"])

    def test_dse_frontier_requires_journal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "frontier"])
        args = build_parser().parse_args(
            ["dse", "frontier", "--journal", "j.jsonl", "--csv"])
        assert args.journal == "j.jsonl" and args.csv

    def test_cache_gc_parses(self):
        args = build_parser().parse_args(
            ["cache", "gc", "--cache-dir", "d", "--max-bytes", "64M"])
        assert args.cache_dir == "d" and args.max_bytes == "64M"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestCommands:
    def test_asm_hex(self, tiny_program, capsys):
        assert main(["asm", tiny_program]) == 0
        out = capsys.readouterr().out
        assert "00400000:" in out

    def test_asm_disasm(self, tiny_program, capsys):
        assert main(["asm", tiny_program, "--disasm"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "bnez" in out

    def test_run(self, tiny_program, capsys):
        assert main(["run", tiny_program]) == 0
        out = capsys.readouterr().out
        assert "retired" in out
        r5_lines = [ln for ln in out.splitlines() if "r5" in ln]
        assert r5_lines and "15" in r5_lines[0]   # r5 = 5+4+3+2+1

    def test_sim_plain(self, tiny_program, capsys):
        assert main(["sim", tiny_program, "--predictor",
                     "not-taken"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "CPI" in out

    def test_sim_with_asbr_folds(self, tiny_program, capsys):
        assert main(["sim", tiny_program, "--asbr"]) == 0
        captured = capsys.readouterr()
        assert "branches folded" in captured.out
        assert "selected" in captured.err

    def test_profile(self, tiny_program, capsys):
        assert main(["profile", tiny_program]) == 0
        out = capsys.readouterr().out
        assert "br" in out          # the labelled branch appears
        assert "foldable" in out

    def test_workload(self, capsys):
        assert main(["workload", "adpcm_enc", "--samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "outputs match golden model: True" in out

    def test_workload_with_asbr(self, capsys):
        assert main(["workload", "huffman_dec", "--samples", "60",
                     "--asbr", "--predictor", "bimodal-512-512"]) == 0
        out = capsys.readouterr().out
        assert "branches folded" in out
        assert "outputs match golden model: True" in out

    def test_sim_real_workload_source(self, capsys):
        assert main(["sim", ADPCM_ENC, "--predictor", "not-taken"]) == 0

    def test_experiments_fig9(self, capsys):
        assert main(["experiments", "fig9", "--samples", "120"]) == 0
        out = capsys.readouterr().out
        assert "Branches selected for adpcm_enc" in out


class TestTelemetryCLI:
    """--trace-out / --branch-report / --json and the trace command."""

    def test_sim_json(self, tiny_program, capsys):
        assert main(["sim", tiny_program, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cycles"] > 0
        assert data["cpi"] == pytest.approx(data["cycles"]
                                            / data["committed"])
        # --json turns the metrics registry on: per-branch tables ride
        # along, and the loop branch appears in them
        branches = data["telemetry"]["branches"]
        assert sum(b["executions"] for b in branches.values()) \
            == data["branches"]

    def test_sim_json_without_telemetry_flags_has_no_tables(
            self, tiny_program, capsys):
        assert main(["sim", tiny_program]) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out      # plain text, no tables

    def test_sim_branch_report(self, tiny_program, capsys):
        assert main(["sim", tiny_program, "--asbr",
                     "--branch-report"]) == 0
        out = capsys.readouterr().out
        assert "per-branch telemetry" in out
        assert "foldT" in out

    def test_sim_trace_out_then_render(self, tiny_program, tmp_path,
                                       capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["sim", tiny_program, "--trace-out", trace]) == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.err and trace in captured.err

        assert main(["trace", "pipeview", trace, "--limit", "12"]) == 0
        view = capsys.readouterr().out
        assert "pipeline timeline" in view
        assert "FDXMW" in view.replace(".", "")   # a full 5-stage row

        assert main(["trace", "report", trace]) == 0
        report = capsys.readouterr().out
        assert "commit=" in report
        assert "per-branch telemetry" in report

    def test_workload_json(self, capsys):
        assert main(["workload", "adpcm_enc", "--samples", "60",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "adpcm_enc"
        assert data["outputs_match_golden"] is True
        assert data["telemetry"]["counters"]["commit"] \
            == data["committed"]

    def test_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["trace", "pipeview", "t.jsonl", "--skip", "5",
             "--max-cycles", "80"])
        assert args.mode == "pipeview" and args.skip == 5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "summary", "t.jsonl"])


class TestHardenedRunnerCLI:
    def test_cache_verify_parses(self):
        args = build_parser().parse_args(
            ["cache", "verify", "--cache-dir", "d", "--keep"])
        assert args.cache_dir == "d" and args.keep

    def test_dse_run_robustness_flags(self):
        args = build_parser().parse_args(
            ["dse", "run", "--task-timeout", "30", "--retries", "2",
             "--tolerant"])
        assert args.task_timeout == 30.0
        assert args.retries == 2 and args.tolerant
        # and the strict defaults are unchanged
        args = build_parser().parse_args(["dse", "run"])
        assert args.task_timeout is None
        assert args.retries == 0 and not args.tolerant

    def test_faults_campaign_defaults(self):
        args = build_parser().parse_args(["faults", "campaign"])
        assert args.benchmark == "adpcm_enc"
        assert (args.samples, args.seed) == (600, 20010618)
        assert args.protection == "all" and args.n_faults == 24
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["faults", "campaign", "--protection", "tmr"])

    def test_faults_report_requires_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "report"])

    def test_cache_verify_prunes_corrupt_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / ("ab" * 32 + ".json")).write_text("{ not json")
        assert main(["cache", "verify", "--cache-dir",
                     str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "1 pruned" in out
        assert list(cache_dir.iterdir()) == []

    def test_cache_verify_keep_leaves_files(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        bad = cache_dir / ("cd" * 32 + ".json")
        bad.write_text("{ not json")
        assert main(["cache", "verify", "--cache-dir", str(cache_dir),
                     "--keep"]) == 0
        out = capsys.readouterr().out
        assert "0 pruned" in out
        assert bad.exists()


class TestDseRunBadSpace:
    """``dse run --space`` names what is wrong in one stderr line and
    exits 2 before any journal is opened."""

    @pytest.mark.parametrize("space, needle", [
        ("papr", "unknown space 'papr'"),
        ("missing.json", "missing.json"),
        ("bad.json", "bit_capacity: unknown key"),
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                   space, needle):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text('{"bit_capacity": [4]}')
        code = main(["dse", "run", "--space", space, "--no-cache",
                     "--journal", "j.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and needle in err
        assert not (tmp_path / "j.jsonl").exists()
