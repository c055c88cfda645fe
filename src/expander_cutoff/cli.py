"""Command-line front end: builds, spectral reports, exact TV profiles,
hitting-time sampling, and the sweep studies, with reproducible artifacts.

Every artifact starts with `#` provenance lines (tool version, one
timestamp line, the command and the flags its run was given); reruns with
identical parameters are byte-identical except for the timestamp line.
JSON bodies follow the header; read_artifact() strips the header again.

Each command imports the package modules it runs, and no others: a cold
process without bytecode caches compiles every module it imports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from importlib.util import find_spec
from pathlib import Path

import numpy as np

from . import __version__, construction
from .construction import ConstructionParams
from .graphs import GraphError, from_text_blocks, text_blocks


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# artifact io


def _header(command: str, params: dict) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    param_s = " ".join(
        f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}"
        for k, v in sorted(params.items()))
    return (f"# expander-cutoff {__version__}\n"
            f"# generated: {stamp}\n"
            f"# command: {command} {param_s}\n")


# characters per write: the file object encodes one slice at a time, so no
# encoded copy of a whole body exists
_WRITE_SLICE = 1 << 20


def write_artifact(path: Path, command: str, params: dict, body) -> None:
    """Header, then the body: a str, written in slices, or an iterable of
    str blocks (graphs.text_blocks), written as they come."""
    blocks = body
    if isinstance(body, str):
        blocks = (body[i:i + _WRITE_SLICE]
                  for i in range(0, len(body), _WRITE_SLICE))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(_header(command, params))
        f.writelines(blocks)


def _finite_or_null(obj):
    """obj with every non-finite float, an undefined mean or ratio, as None:
    strict JSON has no NaN or Infinity, so it is written as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(path: Path, command: str, params: dict, obj) -> None:
    write_artifact(path, command, params,
                   json.dumps(_finite_or_null(obj), indent=2, sort_keys=True,
                              allow_nan=False) + "\n")


def _skip_header(f):
    """Move the text file f past its leading `#` lines."""
    start = f.tell()
    while f.readline().startswith("#"):
        start = f.tell()
    f.seek(start)


def read_artifact(path) -> str:
    """Artifact body: the text from the first line that does not start
    with `#`.  The file is read with universal newlines, so its lines end
    in LF whatever the file used.  The header lines are read one by one
    and the body in one read, so the whole file is never held twice.  The
    CLI reads graph files block by block instead (_load_graph), so no
    string of a whole graph.ev body exists."""
    with open(path) as f:
        _skip_header(f)
        return f.read()


# characters per read of a graph file: the parser holds about one block
# of text and its fields at a time
_READ_BLOCK = 1 << 16


def _line_blocks(f):
    """The rest of the text file f as blocks of whole lines, read
    _READ_BLOCK characters at a time; a line longer than a read is joined
    from its pieces, and only the last block may lack a final newline."""
    pieces = []
    while block := f.read(_READ_BLOCK):
        cut = block.rfind("\n") + 1
        if cut:
            pieces.append(block[:cut])
            yield "".join(pieces)
            pieces = []
            block = block[cut:]
        pieces.append(block)
    if tail := "".join(pieces):
        yield tail


def read_json(path):
    return json.loads(read_artifact(path))


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p):
    p.add_argument("--config", type=str, default=None,
                   help="key=value file; explicit flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(_parser=p)


def _add_build_params(p, flags="variant h L Lprime m min-gap",
                      variants=construction.VARIANTS):
    # only the build flags the command reads, so argparse refuses the
    # others; defaults are filled after the config merge so a config file
    # can set them while explicit flags still win
    for flag in flags.split():
        kind = {"variant": {"choices": variants},
                "min-gap": {"type": float}}.get(flag, {"type": int})
        p.add_argument(f"--{flag}", default=None, **kind)


def _add_walk_params(p):
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--laziness", type=float, default=None)


def _add_eps(p):
    p.add_argument("--eps", type=float, action="append", default=None,
                   help="repeatable; defaults to 0.25 and 0.75")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="expander-cutoff",
        description="Build leveled expander families and measure their "
                    "random-walk mixing behavior.")
    # no prefix matching: a flag a command does not take is refused, not
    # read as a longer one (--m as --min-gap)
    sub = ap.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("build", help="build a graph and emit it with a census")
    _add_build_params(p)
    _add_common(p)

    p = sub.add_parser("spectral", help="spectral report for a built graph")
    p.add_argument("--graph", type=str, required=True)
    p.add_argument("--cheeger-exact", action="store_true", default=None)
    p.add_argument("--dirichlet", action="store_true", default=None)
    _add_common(p)

    p = sub.add_parser("profile", help="exact TV profiles from chosen starts")
    p.add_argument("--graph", type=str, required=True)
    p.add_argument("--starts", type=str, default=None,
                   help="comma-separated vertex ids; defaults to the "
                        "representative start set")
    _add_walk_params(p)
    _add_eps(p)
    _add_common(p)

    p = sub.add_parser("hitting", help="hitting-time samples to the leaf level")
    p.add_argument("--graph", type=str, default=None)
    p.add_argument("--chain", action="store_true", default=None,
                   help="sample the leaf-hitting chain instead of a built "
                        "graph, and report its mean")
    # the chain reads no --m or --min-gap, and only a tree family has one
    _add_build_params(p, "variant h L Lprime", [
        v for v, fam in construction.FAMILIES.items() if fam.branching])
    p.add_argument("--start", type=str, default=None,
                   help="start vertex (graph mode) or start level (chain mode)")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--raw", action="store_true", default=None,
                   help="also write one sample per line")
    _add_common(p)

    p = sub.add_parser(
        "cutoff-report", help="cutoff ratio versus h for a build family",
        description="Cutoff ratio versus h from the root, from the exact "
                    "root-class chain of the cubic or five_regular build: "
                    "nothing is built, so the optional --seed changes "
                    "nothing, and expanders are certified only by build.  "
                    "no_cutoff's exact ratio is nocutoff-demo's "
                    "exact_cutoff; cylinder-sweep studies cylinders.")
    _add_build_params(p, "variant L", construction.ROOT_CHAIN_VARIANTS)
    p.add_argument("--hmin", type=int, required=True)
    p.add_argument("--hmax", type=int, required=True)
    _add_walk_params(p)
    _add_eps(p)
    _add_common(p)

    p = sub.add_parser("cylinder-sweep",
                       help="mixing time versus cylinder length at fixed host")
    p.add_argument("--Ls", type=str, default=None)
    p.add_argument("--m", type=int, default=None)
    # no --eps: its CSV and JSON report only the 1/4 and 3/4 times
    _add_walk_params(p)
    _add_common(p)

    p = sub.add_parser("nocutoff-demo",
                       help="uneven-stretch build: bimodality plus cutoff ratio")
    _add_build_params(p, "h L Lprime min-gap")
    p.add_argument("--samples", type=int, default=None)
    _add_walk_params(p)
    _add_eps(p)
    _add_common(p)
    return ap


# a comma-separated list for the repeatable --eps; others use the flag type
_CONFIG_TYPES = {"eps": lambda val: [float(e) for e in val.split(",")]}
# every flag defaults to None, so a config key can set it while an explicit
# flag still wins; these values are filled after the merge, a
# (command, flag) entry before a flag's own
_POST_CONFIG_DEFAULTS = {
    "variant": "five_regular", "Lprime": 0, "m": 0, "min_gap": 0.05,
    "stride": 1, "out": "out", "start": "0", "samples": 10000,
    "raw": False, "chain": False, "cheeger_exact": False, "dirichlet": False,
    "Ls": "5,9,13", ("cylinder-sweep", "m"): 4,
    ("nocutoff-demo", "samples"): 5000}
_CONFIG_FLAG_VALUES = {"1": True, "true": True, "0": False, "false": False}


def _read_input(read, path, what):
    """read(path) for an input file; a missing, unreadable or undecodable
    file is a usage error."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    try:
        return read(p)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} {p}: {exc}") from None


def _apply_config(args):
    """Fill the flags left unset from --config, by each flag's type and
    choices (args._parser is the command's subparser), then from the
    defaults.  args._given maps each flag set before the defaults to its
    value, except --config, --out and --raw, which say only where the run
    reads and writes.  Every artifact's `# command:` line lists it, so a
    flag left out took the default of the version on the header's first
    line."""
    if args.config:
        actions = {a.dest: a for a in args._parser._actions}
        for line in _read_input(Path.read_text, args.config,
                                "config file").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            val = val.strip()
            if not hasattr(args, key):
                raise UsageError(f"unknown config key: {key}")
            if getattr(args, key) is None:
                action = actions[key]
                try:
                    if action.nargs == 0:   # a store_true flag
                        value = _CONFIG_FLAG_VALUES[val.lower()]
                    else:
                        value = _CONFIG_TYPES.get(key, action.type or str)(val)
                except (KeyError, ValueError):
                    raise UsageError(f"bad value for config key {key}: "
                                     f"{val!r}") from None
                if action.choices is not None and value not in action.choices:
                    raise UsageError(
                        f"invalid choice for config key {key}: {val!r} "
                        f"(choose from {', '.join(action.choices)})")
                setattr(args, key, value)
    _require_one_mode(args)
    args._given = {a.dest: getattr(args, a.dest) for a in args._parser._actions
                   if getattr(args, a.dest, None) is not None
                   and a.dest not in ("config", "out", "raw")}
    for key, value in vars(args).items():
        if value is None:
            default = _POST_CONFIG_DEFAULTS.get(
                (args.command, key), _POST_CONFIG_DEFAULTS.get(key))
            setattr(args, key, default)


def _require_out_dir(args):
    """--out must name a directory or a path that can become one; checked
    before any work so a long run cannot fail at its first write."""
    out = Path(args.out)
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise UsageError(f"--out {out}: {p} is not a directory")
            return


def _require_one_mode(args):
    """hitting samples a graph file or a chain, never both; checked before
    the defaults fill the chain's flags, so a flag set by config counts."""
    if args.command == "hitting" and args.graph is not None:
        mixed = ["--chain"] if args.chain else []
        mixed += [f"--{key}" for key in ("variant", "h", "L", "Lprime")
                  if getattr(args, key) is not None]
        if mixed:
            raise UsageError(f"--graph cannot be combined with "
                             f"{', '.join(mixed)}")


# the commands that draw random numbers, so need an explicit --seed, and how
# far their Philox keys reach past it: a build keys its second expander
# with seed + 1
_SEED_SPAN = {"build": 1, "nocutoff-demo": 1, "hitting": 0,
              "cylinder-sweep": 0}


def _require_in_range(args):
    span = _SEED_SPAN.get(args.command)
    if span is not None and args.seed is None:
        raise UsageError("this command needs an explicit --seed")
    if span is not None and not 0 <= args.seed <= 2**64 - 1 - span:
        raise UsageError(f"--seed must lie in [0, {2**64 - 1 - span}], "
                         f"got {args.seed}")
    for key in ("samples", "stride"):
        value = getattr(args, key, None)
        if value is not None and value < 1:
            raise UsageError(f"--{key} must be >= 1, got {value}")
    laziness = getattr(args, "laziness", None)
    if laziness is not None and not 0.0 <= laziness <= 0.5:
        raise UsageError(f"--laziness must lie in [0, 1/2], got {laziness}")
    tmax = getattr(args, "tmax", None)
    if tmax is not None and tmax < 0:
        raise UsageError(f"--tmax must be >= 0, got {tmax}")
    for eps in getattr(args, "eps", None) or ():
        if not 0.0 < eps < 1.0:
            raise UsageError(f"--eps must lie in (0, 1), got {eps}")


def _checked(params: ConstructionParams) -> ConstructionParams:
    """params, checked before any work: the library's GraphError for a
    parameter out of range is a usage error here."""
    try:
        params.validate()
    except GraphError as exc:
        raise UsageError(str(exc)) from None
    return params


def _params_from_args(args) -> ConstructionParams:
    fam = construction.FAMILIES[args.variant]
    if args.h is None and fam.branching:
        raise UsageError("--h is required for this variant")
    if args.L is None:
        raise UsageError("--L is required")
    if args.Lprime and not fam.uneven:
        raise UsageError(f"variant {args.variant} takes no --Lprime")
    return _checked(ConstructionParams(
        h=args.h or 0, L=args.L, variant=args.variant, L_prime=args.Lprime,
        seed=args.seed,
        # hitting takes no --m or --min-gap
        **{k: getattr(args, k) for k in ("m", "min_gap") if hasattr(args, k)}))


def _read_graph(path):
    with open(path) as f:
        _skip_header(f)
        return from_text_blocks(_line_blocks(f))


def _load_graph(path):
    """The graph of a graph file, parsed as it is read (a file that cannot
    be read or decoded, at any point, is a usage error)."""
    return _read_input(_read_graph, path, "graph file")


def _int_option(text, option) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{option} must be an integer, got {text!r}") from None


def _int_list_option(text, option) -> list:
    return [_int_option(x, option) for x in text.split(",")]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    params = _params_from_args(args)
    g = construction.build(params)
    out = Path(args.out)
    write_artifact(out / "graph.ev", args.command, args._given, text_blocks(g))
    census = {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "degree_min": int(g.degrees().min()),
        "degree_max": int(g.degrees().max()),
        "levels": {str(k): v for k, v in construction.level_census(g).items()},
        "meta": {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in g.meta.items()},
    }
    write_json(out / "census.json", args.command, args._given, census)
    print(f"wrote {out / 'graph.ev'} ({g.vertex_count} vertices, "
          f"{g.edge_count} edges)")
    return 0


def _cmd_spectral(args) -> int:
    from . import spectral

    g = _load_graph(args.graph)
    rep = spectral.spectral_report(g, cheeger_exact=args.cheeger_exact,
                                   dirichlet=args.dirichlet)
    write_json(Path(args.out) / "spectral.json", args.command, args._given,
               asdict(rep))
    print(f"gap={rep.gap:.6f} lambda_abs={rep.lambda_abs:.6f}")
    return 0


def _cmd_profile(args) -> int:
    from . import mixing

    starts = _int_list_option(args.starts, "--starts") if args.starts else None
    if starts and len(set(starts)) != len(starts):
        raise UsageError(f"--starts must be distinct, got {args.starts}")
    g = _load_graph(args.graph)
    starts = starts or mixing.default_starts(g)
    summaries, worst = mixing.cutoff_report(
        g, starts, eps_grid=args.eps or [0.25, 0.75], t_max=args.tmax,
        laziness=args.laziness, stride=args.stride)
    out = Path(args.out)
    for sm in summaries:
        prof = sm.profile
        rows = "t,tv\n" + "".join(f"{t},{v:.12g}\n" for t, v in prof.as_rows())
        # with the start, laziness and stride the profile resolved
        write_artifact(out / f"profile_start{sm.start}.csv", args.command,
                       args._given | {"start": sm.start, "stride": prof.stride,
                                      "laziness": prof.laziness}, rows)
    body = {"starts": [sm.as_dict() for sm in summaries],
            "worst_start": worst.as_dict()}
    write_json(out / "profile_summary.json", args.command, args._given, body)
    print(f"worst start {worst.start}: tmix(1/4)={worst.tmix[0.25]} "
          f"ratio={worst.cutoff_ratio:.3f}")
    return 0


def _cmd_hitting(args) -> int:
    from . import montecarlo

    start = _int_option(args.start, "--start")
    out = Path(args.out)
    if args.chain:
        params = _params_from_args(args)
        chain = montecarlo.descent_chain(params)
        fam = construction.FAMILIES[params.variant]
        predicted = fam.predicted(params.h, params.L)
        state = montecarlo.chain_start(chain, start)
        stats = montecarlo.hitting_stats(
            chain.sample(args.samples, args.seed, start=state), predicted)
        extra = {"chain_mean" if fam.uneven else "exact_mean":
                 chain.exact_mean(state)}
    else:
        if not args.graph:
            raise UsageError("hitting needs --graph or --chain")
        g = _load_graph(args.graph)
        stats = montecarlo.sample_hitting_times(g, start,
                                                args.samples, args.seed)
        extra = {}
    bimodal = (montecarlo.bimodality_check(stats) if len(stats.samples)
               >= montecarlo.BIMODALITY_MIN_SAMPLES else None)
    body = stats.as_dict() | extra
    if bimodal is not None:
        body["bimodality"] = asdict(bimodal)
        body["quantile_ratio"] = montecarlo.hitting_mixing_ratio(stats)
    write_json(out / "hitting.json", args.command, args._given, body)
    if args.raw:
        write_artifact(out / "hitting_samples.txt", args.command, args._given,
                       "".join(f"{x}\n" for x in stats.samples.tolist()))
    print(f"mean={stats.mean:.2f} stddev={stats.stddev:.2f} "
          f"median={stats.quantiles[0.5]:.0f}")
    return 0


def _cmd_cutoff_report(args) -> int:
    from . import mixing

    if args.L is None:
        raise UsageError("--L is required")
    if args.hmin > args.hmax:
        raise UsageError(f"--hmin {args.hmin} is above --hmax {args.hmax}")
    eps = args.eps or [0.25, 0.75]
    heights = [_checked(ConstructionParams(h=h, L=args.L, variant=args.variant))
               for h in range(args.hmin, args.hmax + 1)]
    rows = ["h,n,tmix_quarter,tmix_threequarter,cutoff_ratio,window"]
    details = []
    for params in heights:
        h = params.h
        g = construction.root_chain(params)
        summaries, worst = mixing.cutoff_report(
            g, [0], eps_grid=eps, t_max=args.tmax, laziness=args.laziness,
            stride=args.stride)
        s = summaries[0]
        rows.append(f"{h},{g.vertex_count},{s.tmix[0.25]},{s.tmix[0.75]},"
                    f"{s.cutoff_ratio:.6f},{s.window_estimate}")
        details.append({"h": h, "n": g.vertex_count, **s.as_dict()})
        print(f"h={h}: ratio={s.cutoff_ratio:.3f}")
    out = Path(args.out)
    write_artifact(out / "cutoff_vs_h.csv", args.command, args._given,
                   "\n".join(rows) + "\n")
    write_json(out / "cutoff_vs_h.json", args.command, args._given,
               {"rows": details})
    return 0


def _cmd_cylinder_sweep(args) -> int:
    from . import mixing

    lengths = _int_list_option(args.Ls, "--Ls")
    if len(set(lengths)) != len(lengths):
        raise UsageError(f"--Ls must be distinct, got {args.Ls}")
    if len(lengths) < 2:
        raise UsageError("--Ls needs at least two distinct lengths for the "
                         "log-log fit")
    sweep = [_checked(ConstructionParams(
        h=0, L=L, variant="cylinder", m=args.m, seed=args.seed))
        for L in lengths]
    rows = ["L,n,tmix_quarter,tmix_threequarter"]
    pts = []
    for params in sweep:
        L = params.L
        g = construction.build(params)
        summaries, worst = mixing.cutoff_report(
            g, mixing.default_starts(g), t_max=args.tmax,
            laziness=args.laziness, stride=args.stride)
        rows.append(f"{L},{g.vertex_count},{worst.tmix[0.25]},{worst.tmix[0.75]}")
        pts.append((L, worst.tmix[0.25]))
        print(f"L={L}: n={g.vertex_count} tmix(1/4)={worst.tmix[0.25]}")
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    out = Path(args.out)
    write_artifact(out / "cylinder_sweep.csv", args.command, args._given,
                   "\n".join(rows) + "\n")
    write_json(out / "cylinder_sweep.json", args.command, args._given,
               {"points": [{"L": L, "tmix": t} for L, t in pts],
                "loglog_slope": slope})
    print(f"log-log slope of tmix vs L: {slope:.3f}")
    return 0


def _cmd_nocutoff_demo(args) -> int:
    from . import mixing, montecarlo

    if args.h is None or args.L is None or not args.Lprime:
        raise UsageError("nocutoff-demo needs --h, --L and --Lprime")
    if args.samples < montecarlo.BIMODALITY_MIN_SAMPLES:
        raise UsageError(f"--samples must be >= "
                         f"{montecarlo.BIMODALITY_MIN_SAMPLES} for the "
                         f"bimodality check, got {args.samples}")
    params = _checked(ConstructionParams(
        h=args.h, L=args.L, variant="no_cutoff", L_prime=args.Lprime,
        seed=args.seed, min_gap=args.min_gap))
    unread = [f"--{k.replace('_', '-')}" for k in ("min_gap", "eps", "tmax",
              "stride", "laziness") if k in args._given]
    if args.h > 2 and unread:
        raise UsageError(f"nocutoff-demo builds and walks only at h <= 2, "
                         f"so at h={args.h} it reads no {', '.join(unread)}")
    chain = montecarlo.descent_chain(params)
    stats = montecarlo.hitting_stats(chain.sample(args.samples, args.seed))
    bimodal = montecarlo.bimodality_check(stats)
    body = {
        "params": {"h": args.h, "L": args.L, "L_prime": args.Lprime},
        "hitting": stats.as_dict(),
        "bimodality": asdict(bimodal),
        "hitting_quantile_ratio": montecarlo.hitting_mixing_ratio(stats),
    }
    # exact TV ratio where the build is desk-sized
    if args.h <= 2:
        g = construction.build(params)
        summaries, _ = mixing.cutoff_report(
            g, [0], eps_grid=args.eps or [0.25, 0.75], t_max=args.tmax,
            laziness=args.laziness, stride=args.stride)
        body["exact_cutoff"] = summaries[0].as_dict()
        print(f"exact cutoff ratio from root: {summaries[0].cutoff_ratio:.3f}")
    write_json(Path(args.out) / "nocutoff.json", args.command, args._given,
               body)
    print(f"bimodal={bimodal.flag} weights={bimodal.cluster_weights} "
          f"quantile_ratio={montecarlo.hitting_mixing_ratio(stats):.3f}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "spectral": _cmd_spectral,
    "profile": _cmd_profile,
    "hitting": _cmd_hitting,
    "cutoff-report": _cmd_cutoff_report,
    "cylinder-sweep": _cmd_cylinder_sweep,
    "nocutoff-demo": _cmd_nocutoff_demo,
}


# the builtin modules hashlib falls back to without OpenSSL; CPython can
# be built without some of them (--with-builtin-hashlib-hashes), and
# hashlib's import then logs an error for each hash it lacks
_BUILTIN_HASHES = ("_md5", "_sha1", "_sha3", "_blake2",
                   *(("_sha2",) if sys.version_info >= (3, 12)
                     else ("_sha256", "_sha512")))


def main(argv=None) -> int:
    """Run one command.  No command hashes, but numpy.random imports
    secrets, and with it hmac and hashlib, whose OpenSSL backend _hashlib
    maps libcrypto (about 3 MB resident).  While the command runs, a None
    entry for a _hashlib that nothing has loaded makes both fall back to
    CPython's builtin hashes, where the interpreter has them all; the
    entry is removed again on return."""
    unloaded = ("_hashlib" not in sys.modules
                and all(map(find_spec, _BUILTIN_HASHES)))
    if unloaded:
        sys.modules["_hashlib"] = None
    try:
        return _run(argv)
    finally:
        if unloaded and sys.modules.get("_hashlib", False) is None:
            del sys.modules["_hashlib"]


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        _require_in_range(args)
        _require_out_dir(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
