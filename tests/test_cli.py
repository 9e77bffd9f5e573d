import os
from pathlib import Path

import numpy as np
import pytest

from helpers import plant_in_container
from qwenkit.cli import build_parser, main
from qwenkit.config import parse_config, preset, preset_names
from qwenkit.model import build_model
from qwenkit.ops import Rng
from qwenkit.serialize import load_weights, save_weights

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _fixed_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("QWENKIT_VERBOSITY", raising=False)


def _collect_help() -> str:
    parser = build_parser()
    chunks = ["$ qwenkit --help\n" + parser.format_help()]

    def walk(p, trail):
        for action in p._actions:
            if action.__class__.__name__ != "_SubParsersAction":
                continue
            for name, child in action.choices.items():
                t = trail + [name]
                chunks.append("$ qwenkit " + " ".join(t) + " --help\n" + child.format_help())
                walk(child, t)

    walk(parser, [])
    return "\n".join(chunks)


class TestHelp:
    def test_snapshot(self):
        assert _collect_help() == (DATA / "cli_help.txt").read_text()

    def test_every_flag_enumerated(self):
        text = _collect_help()
        for flag in ("--preset", "--prompt-ids", "--max-new", "--seed", "--corpus",
                     "--vocab-size", "--out", "--vocab", "--text", "--infile",
                     "--ids", "--in", "--experts", "--expert-dim", "--activated",
                     "--shared", "--train", "--tests", "--mode", "--format",
                     "--verdicts", "--ngram-n", "--lcs-min-len", "--lcs-min-frac",
                     "--seq", "--chunk", "--q-heads", "--kv-heads", "--head-dim",
                     "--rope-base"):
            assert flag in text, flag

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["model", "demo", "--prompt-ids", "1", "--bogus"]) == 2

    def test_bad_id_list(self, capsys):
        assert main(["model", "demo", "--prompt-ids", "1,two"]) == 2

    def test_runtime_failure(self, capsys):
        # id outside the nano vocabulary
        assert main(["model", "demo", "--prompt-ids", "100000"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["tok", "encode", "--vocab", "/nonexistent.bpe", "--text", "x"]) == 1

    def test_success(self, capsys):
        assert main(["config", "show", "--preset", "nano"]) == 0

    def test_bad_verbosity_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QWENKIT_VERBOSITY", "loud")
        assert main(["config", "show", "--preset", "nano"]) == 2


class TestModelCommands:
    def test_demo_prints_ids_deterministically(self, capsys):
        assert main(["model", "demo", "--prompt-ids", "1,2,3", "--max-new", "4"]) == 0
        first = capsys.readouterr().out
        ids = [int(x) for x in first.split()]
        assert ids[:3] == [1, 2, 3]
        assert len(ids) <= 7
        assert main(["model", "demo", "--prompt-ids", "1,2,3", "--max-new", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_demo_seed_changes_output(self, capsys):
        main(["model", "demo", "--prompt-ids", "1,2,3", "--max-new", "4"])
        base = capsys.readouterr().out
        main(["model", "demo", "--prompt-ids", "1,2,3", "--max-new", "4",
              "--seed", "9"])
        assert capsys.readouterr().out != base

    def test_validate_published_preset(self, capsys):
        assert main(["model", "validate", "--preset", "qwen2-72b"]) == 0
        out = capsys.readouterr().out
        assert "n_layers: 80 ok" in out
        assert "n_q_heads: 64 ok" in out
        assert "n_kv_heads: 8 ok" in out
        assert "qwen2-72b: valid" in out

    @pytest.mark.parametrize("name", preset_names())
    def test_validate_all_presets(self, name, capsys):
        assert main(["model", "validate", "--preset", name]) == 0

    def test_header_has_seed(self, capsys):
        main(["model", "demo", "--prompt-ids", "1", "--max-new", "1", "--seed", "5"])
        assert "# qwenkit model demo seed=5" in capsys.readouterr().err

    def test_quiet_suppresses_header(self, capsys, monkeypatch):
        monkeypatch.setenv("QWENKIT_VERBOSITY", "quiet")
        main(["model", "demo", "--prompt-ids", "1", "--max-new", "1"])
        assert capsys.readouterr().err == ""

    def test_debug_adds_diagnostics(self, capsys, monkeypatch):
        monkeypatch.setenv("QWENKIT_VERBOSITY", "debug")
        main(["model", "demo", "--prompt-ids", "1", "--max-new", "1"])
        err = capsys.readouterr().err
        assert "building nano" in err


class TestConfigShow:
    def test_output_parses_back(self, capsys):
        assert main(["config", "show", "--preset", "qwen2-57b-a14b"]) == 0
        text = capsys.readouterr().out
        assert parse_config(text) == preset("qwen2-57b-a14b")


class TestAttnBench:
    def test_single_chunk_reports_zero_diff(self, capsys):
        assert main(["attn", "bench", "--seq", "64", "--chunk", "64"]) == 0
        out = capsys.readouterr().out
        fields = dict(part.split("=") for part in out.split())
        assert float(fields["max_diff"]) <= 1e-5
        assert float(fields["vanilla_ms"]) > 0
        assert float(fields["dca_ms"]) > 0

    def test_multi_chunk_runs(self, capsys):
        assert main(["attn", "bench", "--seq", "64", "--chunk", "16"]) == 0


class TestTokCommands:
    def test_full_workflow(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat sat on the mat\nthe dog sat on the log\n")
        vocab_path = tmp_path / "v.bpe"
        assert main(["tok", "train", "--corpus", str(corpus), "--vocab-size", "300",
                     "--out", str(vocab_path)]) == 0
        capsys.readouterr()
        assert main(["tok", "encode", "--vocab", str(vocab_path), "--text",
                     "the cat sat"]) == 0
        ids = capsys.readouterr().out.split()
        assert ids
        assert main(["tok", "decode", "--vocab", str(vocab_path), "--ids",
                     ",".join(ids)]) == 0
        assert capsys.readouterr().out == "the cat sat\n"
        assert main(["tok", "stats", "--vocab", str(vocab_path), "--corpus",
                     str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "compression_rate=" in out
        assert float(out.split("compression_rate=")[1]) > 1.0

    def test_encode_from_file(self, tmp_path, capsys):
        vocab_path = tmp_path / "v.bpe"
        corpus = tmp_path / "c.txt"
        corpus.write_text("aaaa\n")
        main(["tok", "train", "--corpus", str(corpus), "--vocab-size", "260",
              "--out", str(vocab_path)])
        capsys.readouterr()
        blob = tmp_path / "raw.bin"
        blob.write_bytes(b"aaaa")
        assert main(["tok", "encode", "--vocab", str(vocab_path), "--infile",
                     str(blob)]) == 0
        assert capsys.readouterr().out.strip() == "256 256"


class TestMoeUpcycle:
    def test_upcycle_roundtrip(self, tmp_path, capsys):
        cfg = preset("nano")
        dense_path = tmp_path / "dense.qw2t"
        save_weights(build_model(cfg, 0), cfg, dense_path)
        out_path = tmp_path / "moe.qw2t"
        assert main(["moe", "upcycle", "--in", str(dense_path), "--out", str(out_path),
                     "--experts", "4", "--expert-dim", "32", "--activated", "2",
                     "--shared", "1", "--seed", "7"]) == 0
        weights, cfg2 = load_weights(out_path)
        assert cfg2.moe is not None
        assert cfg2.moe.n_routed == 4
        assert cfg2.ffn_intermediate == 32
        assert len(weights.layers[0].moe_bank.routed) == 4

    def test_upcycling_moe_input_fails(self, tmp_path, capsys):
        cfg = preset("nano-moe")
        path = tmp_path / "moe.qw2t"
        save_weights(build_model(cfg, 0), cfg, path)
        assert main(["moe", "upcycle", "--in", str(path), "--out",
                     str(tmp_path / "x.qw2t"), "--experts", "2",
                     "--expert-dim", "16"]) == 1


    def test_upcycling_non_finite_input_fails(self, tmp_path, capsys):
        cfg = preset("nano")
        path = tmp_path / "dense.qw2t"
        save_weights(build_model(cfg, 0), cfg, path)
        plant_in_container(path, "layers.0.wq", float("nan"))
        out_path = tmp_path / "moe.qw2t"
        assert main(["moe", "upcycle", "--in", str(path), "--out", str(out_path),
                     "--experts", "4", "--expert-dim", "32"]) == 1
        err = capsys.readouterr().err
        assert "layers.0.wq" in err
        assert "Traceback" not in err
        assert not out_path.exists()


class TestDecontamScan:
    @pytest.fixture()
    def fixture_dir(self, tmp_path):
        rng = Rng(99)
        train_pool = [f"alpha{i}" for i in range(150)]
        test_pool = [f"beta{i}" for i in range(150)]

        def pick(pool, n):
            return [pool[int(v % len(pool))] for v in rng.uint64s(n)]

        samples = [" ".join(pick(test_pool, 20)) for _ in range(5)]
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "setA.txt").write_text("\n".join(samples[:3]) + "\n")
        (tests_dir / "setB.txt").write_text("\n".join(samples[3:]) + "\n")
        planted = {3, 17, 31, 44, 58, 72, 91}
        lines = []
        for i in range(100):
            words = pick(train_pool, 60)
            if i in planted:
                words[10:30] = samples[i % 5].split()
            lines.append(" ".join(words))
        train = tmp_path / "train.txt"
        train.write_text("\n".join(lines) + "\n")
        return train, tests_dir, planted

    def test_train_side_scan_counts_planted(self, fixture_dir, capsys):
        train, tests_dir, planted = fixture_dir
        assert main(["decontam", "scan", "--train", str(train), "--tests",
                     str(tests_dir), "--mode", "train-side-lcs"]) == 0
        out = capsys.readouterr().out
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert sum(int(r[2]) for r in rows) == len(planted)

    def test_verdict_file_lists_planted_docs(self, fixture_dir, tmp_path, capsys):
        train, tests_dir, planted = fixture_dir
        verdicts = tmp_path / "verdicts.tsv"
        assert main(["decontam", "scan", "--train", str(train), "--tests",
                     str(tests_dir), "--mode", "train-side-lcs",
                     "--verdicts", str(verdicts)]) == 0
        lines = verdicts.read_text().strip().splitlines()[1:]
        doc_lines = {int(line.split("\t")[0].split(":")[1]) for line in lines}
        assert doc_lines == {i + 1 for i in planted}

    def test_text_format(self, fixture_dir, capsys):
        train, tests_dir, _ = fixture_dir
        assert main(["decontam", "scan", "--train", str(train), "--tests",
                     str(tests_dir), "--mode", "test-side-13gram",
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "test_set" in out and "\t" not in out

    def test_scan_deterministic(self, fixture_dir, capsys):
        train, tests_dir, _ = fixture_dir
        args = ["decontam", "scan", "--train", str(train), "--tests",
                str(tests_dir), "--mode", "test-side-13gram"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
