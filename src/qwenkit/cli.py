"""Command-line entry point.

Subcommands: model demo/validate, tok train/encode/decode/stats,
moe upcycle, decontam scan, config show. Exit codes: 0 success,
1 validation or runtime failure, 2 usage error. The QWENKIT_VERBOSITY
environment variable (quiet, info, debug) controls diagnostics on stderr;
every run prints a header line naming the subcommand, and its seed when
it takes one.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import decontam as dc
from . import tokenizer as tok
from .config import format_config, preset, preset_names
from .errors import ParameterError, QwenKitError
from .model import _tensor_shapes, build_model, greedy_decode, upcycle_model
from .moe import MoeConfig
from .ops import _file_errors, _read_bytes
from .serialize import load_weights, save_weights

VERBOSITY_LEVELS = ("quiet", "info", "debug")
ENV_VERBOSITY = "QWENKIT_VERBOSITY"

# Most float32 weight bytes `model demo` draws. The nano presets hold
# 0.4-0.5 MiB; the smallest published preset, qwen2-0.5b, about 1.8 GiB,
# which would take minutes to draw or fail to allocate.
DEMO_MAX_WEIGHT_BYTES = 64 * 2**20

# Published architecture table used by `model validate` as an independent
# cross-check of the preset registry.
_EXPECTED = {
    "qwen2-0.5b": dict(hidden=896, n_layers=24, n_q_heads=14, n_kv_heads=2,
                       head_dim=64, ffn_intermediate=4864, tie_embeddings=True,
                       vocab_size=151646),
    "qwen2-1.5b": dict(hidden=1536, n_layers=28, n_q_heads=12, n_kv_heads=2,
                       head_dim=128, ffn_intermediate=8960, tie_embeddings=True,
                       vocab_size=151646),
    "qwen2-7b": dict(hidden=3584, n_layers=28, n_q_heads=28, n_kv_heads=4,
                     head_dim=128, ffn_intermediate=18944, tie_embeddings=False,
                     vocab_size=151646),
    "qwen2-72b": dict(hidden=8192, n_layers=80, n_q_heads=64, n_kv_heads=8,
                      head_dim=128, ffn_intermediate=29568, tie_embeddings=False,
                      vocab_size=151646),
    "qwen2-57b-a14b": dict(hidden=3584, n_layers=28, n_q_heads=28, n_kv_heads=4,
                           head_dim=128, ffn_intermediate=2560, tie_embeddings=False,
                           vocab_size=151646, n_routed=64, k_active=8, n_shared=8),
}


def _id_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _verbosity() -> str | None:
    level = os.environ.get(ENV_VERBOSITY, "info")
    if level not in VERBOSITY_LEVELS:
        print(f"usage error: {ENV_VERBOSITY} must be one of {VERBOSITY_LEVELS}, "
              f"got {level!r}", file=sys.stderr)
        return None
    return level


class _Run:
    """Per-invocation diagnostics respecting the verbosity level."""

    def __init__(self, command: str, seed: int | None, level: str):
        self.level = level
        if level != "quiet":
            line = f"# qwenkit {command}"
            if seed is not None:
                line += f" seed={seed}"
            print(line, file=sys.stderr)

    def debug(self, message: str) -> None:
        if self.level == "debug":
            print(f"# {message}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwenkit",
        description="Desk-scale grouped-query transformer mechanisms: "
                    "attention, long-context remapping, mixture-of-experts, "
                    "byte-level BPE, and contamination scans.",
    )
    top = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_model = top.add_parser("model", help="build, run, and validate model presets")
    model_sub = p_model.add_subparsers(dest="subcommand", required=True, metavar="SUB")
    p_demo = model_sub.add_parser("demo", help="greedy-decode from a prompt of token ids")
    p_demo.add_argument("--preset", default="nano", choices=preset_names())
    p_demo.add_argument("--prompt-ids", type=_id_list, required=True,
                        help="comma-separated token ids")
    p_demo.add_argument("--max-new", type=int, default=8)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_model_demo)
    p_val = model_sub.add_parser("validate", help="check a preset against the published table")
    p_val.add_argument("--preset", required=True, choices=preset_names())
    p_val.set_defaults(func=_cmd_model_validate)

    p_tok = top.add_parser("tok", help="byte-level BPE workflows")
    tok_sub = p_tok.add_subparsers(dest="subcommand", required=True, metavar="SUB")
    p_train = tok_sub.add_parser("train", help="train a vocabulary on text files")
    p_train.add_argument("--corpus", action="append", required=True,
                         help="input file; repeat for more")
    p_train.add_argument("--vocab-size", type=int, required=True)
    p_train.add_argument("--out", required=True, help="vocabulary file to write")
    p_train.set_defaults(func=_cmd_tok_train)
    p_enc = tok_sub.add_parser("encode", help="encode text to token ids")
    p_enc.add_argument("--vocab", required=True)
    enc_src = p_enc.add_mutually_exclusive_group(required=True)
    enc_src.add_argument("--text", help="literal text to encode")
    enc_src.add_argument("--infile", help="file whose bytes are encoded")
    p_enc.set_defaults(func=_cmd_tok_encode)
    p_dec = tok_sub.add_parser("decode", help="decode token ids to bytes")
    p_dec.add_argument("--vocab", required=True)
    p_dec.add_argument("--ids", type=_id_list, required=True,
                       help="comma-separated token ids")
    p_dec.set_defaults(func=_cmd_tok_decode)
    p_stats = tok_sub.add_parser("stats", help="vocabulary and compression statistics")
    p_stats.add_argument("--vocab", required=True)
    p_stats.add_argument("--corpus", action="append", required=True)
    p_stats.set_defaults(func=_cmd_tok_stats)

    p_moe = top.add_parser("moe", help="mixture-of-experts tools")
    moe_sub = p_moe.add_subparsers(dest="subcommand", required=True, metavar="SUB")
    p_up = moe_sub.add_parser("upcycle", help="initialize a MoE model from a dense one")
    p_up.add_argument("--in", dest="in_path", required=True, metavar="IN",
                      help="dense weight container")
    p_up.add_argument("--out", required=True, help="MoE weight container to write")
    p_up.add_argument("--experts", type=int, required=True, help="routed expert count")
    p_up.add_argument("--expert-dim", type=int, required=True,
                      help="per-expert intermediate size")
    p_up.add_argument("--activated", type=int, default=2, help="experts used per token")
    p_up.add_argument("--shared", type=int, default=0, help="always-on expert count")
    p_up.add_argument("--seed", type=int, default=0)
    p_up.set_defaults(func=_cmd_moe_upcycle)

    p_dc = top.add_parser("decontam", help="contamination scans")
    dc_sub = p_dc.add_subparsers(dest="subcommand", required=True, metavar="SUB")
    p_scan = dc_sub.add_parser("scan", help="scan a training corpus against test sets")
    p_scan.add_argument("--train", required=True,
                        help="file (one document per line) or directory of text files")
    p_scan.add_argument("--tests", required=True,
                        help="directory; each file is one test set, one sample per line")
    p_scan.add_argument("--mode", required=True, choices=dc.MODES)
    p_scan.add_argument("--format", default="tsv", choices=("tsv", "text"))
    p_scan.add_argument("--verdicts", help="write per-sample verdicts to this file")
    p_scan.add_argument("--ngram-n", type=int, default=13)
    p_scan.add_argument("--lcs-min-len", type=int, default=13)
    p_scan.add_argument("--lcs-min-frac", type=float, default=0.6)
    p_scan.set_defaults(func=_cmd_decontam_scan)

    p_cfg = top.add_parser("config", help="configuration inspection")
    cfg_sub = p_cfg.add_subparsers(dest="subcommand", required=True, metavar="SUB")
    p_show = cfg_sub.add_parser("show", help="print a preset in the JSON config format")
    p_show.add_argument("--preset", required=True, choices=preset_names())
    p_show.set_defaults(func=_cmd_config_show)

    return parser


def _cmd_model_demo(args, run: _Run) -> int:
    cfg = preset(args.preset)
    size = 4 * sum(math.prod(shape) for shape in _tensor_shapes(cfg).values())
    if size > DEMO_MAX_WEIGHT_BYTES:
        raise ParameterError(
            f"preset {args.preset} holds {size / 2**30:.2f} GiB of float32 weights; "
            f"model demo draws at most {DEMO_MAX_WEIGHT_BYTES // 2**20} MiB")
    run.debug(f"building {args.preset}: {cfg.n_layers} layers, hidden {cfg.hidden}")
    weights = build_model(cfg, args.seed)
    ids = greedy_decode(weights, cfg, args.prompt_ids, args.max_new)
    print(" ".join(str(i) for i in ids))
    return 0


def _check(label: str, actual, expected, failures: list[str]) -> None:
    if actual != expected:
        failures.append(f"{label}: preset has {actual}, table says {expected}")
    else:
        print(f"{label}: {actual} ok")


def _cmd_model_validate(args, run: _Run) -> int:
    cfg = preset(args.preset)
    failures: list[str] = []
    if args.preset in _EXPECTED:
        exp = _EXPECTED[args.preset]
        for key in ("hidden", "n_layers", "n_q_heads", "n_kv_heads", "head_dim",
                    "ffn_intermediate", "tie_embeddings", "vocab_size"):
            _check(key, getattr(cfg, key), exp[key], failures)
        if "n_routed" in exp:
            if cfg.moe is None:
                failures.append("moe: preset is dense, table says MoE")
            else:
                for key in ("n_routed", "k_active", "n_shared"):
                    _check(f"moe.{key}", getattr(cfg.moe, key), exp[key], failures)
        elif cfg.moe is not None:
            failures.append("moe: preset is MoE, table says dense")
    print(f"regular+control tokens: {cfg.regular_tokens}+{cfg.control_tokens} "
          f"<= vocab {cfg.vocab_size} ok")
    if failures:
        for f in failures:
            print(f"validation failure: {f}", file=sys.stderr)
        return 1
    print(f"{args.preset}: valid")
    return 0


def _cmd_tok_train(args, run: _Run) -> int:
    corpus = [_read_bytes(path) for path in args.corpus]
    vocab = tok.bpe_train(corpus, args.vocab_size)
    tok.save_vocab(vocab, args.out)
    run.debug(f"trained on {len(corpus)} files, {sum(map(len, corpus))} bytes")
    print(f"vocab: {vocab.vocab_size} ids ({len(vocab.merges)} merges, "
          f"{len(vocab.control_names)} control) -> {args.out}")
    return 0


def _cmd_tok_encode(args, run: _Run) -> int:
    vocab = tok.load_vocab(args.vocab)
    if args.text is not None:
        # Bytes that were not UTF-8 in argv come back as they were.
        data = args.text.encode("utf-8", "surrogateescape")
    else:
        data = _read_bytes(args.infile)
    ids = tok.encode(vocab, data)
    print(" ".join(str(i) for i in ids))
    return 0


def _cmd_tok_decode(args, run: _Run) -> int:
    vocab = tok.load_vocab(args.vocab)
    data = tok.decode(vocab, args.ids)
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.write(b"\n")
    sys.stdout.buffer.flush()
    return 0


def _cmd_tok_stats(args, run: _Run) -> int:
    vocab = tok.load_vocab(args.vocab)
    corpus = [_read_bytes(path) for path in args.corpus]
    rate = tok.compression_rate(vocab, corpus)
    print(f"vocab_size={vocab.vocab_size} merges={len(vocab.merges)} "
          f"compression_rate={rate:.4f}")
    return 0


def _cmd_moe_upcycle(args, run: _Run) -> int:
    weights, dense_cfg = load_weights(args.in_path)
    moe_cfg = MoeConfig(n_routed=args.experts, k_active=args.activated,
                        n_shared=args.shared, expert_dim=args.expert_dim,
                        hidden=dense_cfg.hidden)
    new_weights, new_cfg = upcycle_model(weights, dense_cfg, moe_cfg, args.seed)
    save_weights(new_weights, new_cfg, args.out)
    run.debug(f"dense intermediate {dense_cfg.ffn_intermediate} -> "
              f"{moe_cfg.n_routed} experts of {moe_cfg.expert_dim}")
    print(f"upcycled {args.in_path} -> {args.out}: {moe_cfg.n_routed} routed / "
          f"{moe_cfg.k_active} activated / {moe_cfg.n_shared} shared experts")
    return 0


def _cmd_decontam_scan(args, run: _Run) -> int:
    train = dc.load_docs(args.train)
    tests = dc.load_test_sets(args.tests)
    run.debug(f"{len(train)} training docs, "
              f"{sum(len(s) for s in tests.values())} test samples")
    kept, removed, report = dc.filter_corpus(
        train, tests, args.mode, ngram_n=args.ngram_n,
        lcs_min_len=args.lcs_min_len, lcs_min_frac=args.lcs_min_frac)
    sys.stdout.write(dc.format_report(report, args.format))
    path = args.verdicts
    if path:
        with _file_errors(path, "write"), open(path, "w", encoding="utf-8") as fh:
            fh.write(dc.format_verdicts(report))
        run.debug(f"wrote {len(report.verdicts)} verdicts to {path}")
    return 0


def _cmd_config_show(args, run: _Run) -> int:
    print(format_config(preset(args.preset)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    level = _verbosity()
    if level is None:
        return 2
    command = args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else "")
    run = _Run(command, getattr(args, "seed", None), level)
    try:
        return args.func(args, run)
    except (QwenKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
