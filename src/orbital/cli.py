"""Command-line interface.

Four subcommands: richardson (build and describe the maximal component of
a tau-invariant), hypersurfaces (enumerate or classify codimension-one
descendants, optionally with their defining equations), project (window
restriction of a tableau, optionally step by step), and verify (run the
finite-field probes over a sweep of descriptors).

Exit codes: 0 success, 1 a verification probe found a necessity failure,
2 usage errors (bad flags, malformed input), 3 a well-formed question
whose answer is "not applicable" (e.g. a tableau that is not a
hypersurface component), 141 stdout closed before the output was
written (128 + SIGPIPE, the shell's status for it).

verify streams its sweep: it holds one descriptor at a time, prints each
text line as that descriptor's report is ready, and with --json prints
the whole document once, after the last descriptor.

Output is deterministic: same flags, same bytes; no environment variable
changes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from .errors import BadProbeInput, BadRange, OrbitalError, TableauError
from .generator import char_poly, generator_report
from .hypersurface import (
    HypersurfaceDescriptor,
    classify_hypersurface,
    hypersurface_descendants,
    iter_descriptors,
)
from .projections import project, remove_largest, strip_first_steps
from .tableaux import (
    StandardTableau,
    TauSet,
    chains,
    render_tableau,
    richardson_tableau,
    tau_invariant,
    variety_dim,
)
from .verify import DEFAULT_PRIME, SECOND_PRIME, check_modulus, verify_conjecture

SCHEMA = "orbital/v1"


def _parse_tau(parser: argparse.ArgumentParser, text: str, n: int) -> TauSet:
    if n < 1:
        parser.error(f"--n must be at least 1, got {n}")
    text = text.strip()
    items = text.split(",") if text else []
    if any(not p.strip() for p in items):
        parser.error(f"bad tau: empty item in {text!r}")
    try:
        indices = [int(p) for p in items]
        tau = TauSet(frozenset(indices), n)
    except ValueError as exc:
        parser.error(f"bad tau: {exc}")
    if len(tau.indices) != len(indices):
        repeated = next(i for i in indices if indices.count(i) > 1)
        parser.error(f"bad tau: index {repeated} repeated")
    return tau


def _load_tableau(parser: argparse.ArgumentParser, path: str) -> StandardTableau:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return StandardTableau.from_json(data)
    except FileNotFoundError:
        parser.error(f"no such file: {path}")
    except OSError as exc:
        parser.error(f"cannot read {path}: {exc.strerror}")
    except (ValueError, TableauError) as exc:
        parser.error(f"malformed tableau file {path}: {exc}")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _chains_str(t_r: StandardTableau) -> str:
    return " ".join("{" + ",".join(map(str, c)) + "}" for c in chains(t_r))


def cmd_richardson(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    tau = _parse_tau(parser, args.tau, args.n)
    t_r = richardson_tableau(tau, args.n)
    dim = variety_dim(t_r.shape, args.n)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "command": "richardson",
                "n": args.n,
                "tau": tau.to_json(),
                "tableau": t_r.to_json(),
                "shape": t_r.shape.to_json(),
                "dim": dim,
                "chains": [[c[0], c[-1]] for c in chains(t_r)],
            }
        )
    else:
        print(f"tau = {tau}   n = {args.n}")
        print(render_tableau(t_r))
        print(f"shape {t_r.shape}   dim {dim}")
        print(f"chains: {_chains_str(t_r)}")
    return 0


def _descriptor_text(d: HypersurfaceDescriptor, with_generator: bool) -> list[str]:
    lines = [f"descriptor {d.descriptor_id}"]
    lines.append(
        f"  sigma = alpha({d.sigma_lo}..{d.sigma_hi})   thickness {d.thickness}"
        f"   window [{d.window[0]}, {d.window[1]}]"
    )
    lines.append("  tableau:")
    lines.extend("  " + row for row in render_tableau(d.tableau).splitlines())
    if with_generator:
        rep = generator_report(d)
        lines.append(f"  l(lambda) = {rep.l_lambda}")
        lines.append(f"  f = {rep.f}")
        lines.append(f"  wt(f) = {rep.weight}")
        nonzero = [str(j) for j, m in rep.m_sequence if not m.is_zero]
        lines.append(f"  nonzero m_j at j = {', '.join(nonzero)}")
        lines.append(f"  p_V = {char_poly(d)}")
    return lines


def _descriptor_json(d: HypersurfaceDescriptor, with_generator: bool) -> dict:
    out = d.to_json()
    if with_generator:
        out["generator"] = generator_report(d).to_json()
        out["char_poly"] = char_poly(d).to_json()
    return out


def cmd_hypersurfaces(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.tableau is not None:
        if args.n is not None:
            parser.error("--n goes with --tau; a --tableau file sets its own size")
        t = _load_tableau(parser, args.tableau)
        d = classify_hypersurface(t)
        if d is None:
            tau = tau_invariant(t)
            if t == richardson_tableau(tau, t.n):
                msg = "tableau is the Richardson tableau of its tau-invariant, not a proper descendant"
            else:
                msg = "tableau is not a hypersurface component of its tau-invariant"
            print(msg, file=sys.stderr)
            return 3
        descriptors = [d]
        n, tau = t.n, d.tau
    else:
        if args.n is None:
            parser.error("--tau requires --n")
        tau = _parse_tau(parser, args.tau, args.n)
        n = args.n
        descriptors = hypersurface_descendants(richardson_tableau(tau, n))
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "command": "hypersurfaces",
                "n": n,
                "tau": tau.to_json(),
                "descriptors": [
                    _descriptor_json(d, args.generator) for d in descriptors
                ],
            }
        )
    else:
        print(f"tau = {tau}   n = {n}   descendants: {len(descriptors)}")
        for d in descriptors:
            for line in _descriptor_text(d, args.generator):
                print(line)
    return 0


def _grid_json(grid) -> list[list[int | None]]:
    return [list(row) for row in grid]


def cmd_project(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    t = _load_tableau(parser, args.tableau)
    result = project(t, args.i, args.j)
    steps_json = []
    steps_text: list[str] = []
    if args.steps:
        cur = t
        for _ in range(t.n - args.j):
            cur = remove_largest(cur)
            steps_text.append("after removing the largest box:")
            steps_text.append(render_tableau(cur))
            steps_json.append({"move": "remove_largest", "rows": cur.to_json()["rows"]})
        for _ in range(args.i - 1):
            cur, grids = strip_first_steps(cur)
            for g in grids:
                steps_text.append(render_tableau(g))
                steps_json.append({"move": "slide", "grid": _grid_json(g)})
            steps_text.append("after the slide, relabelled:")
            steps_text.append(render_tableau(cur))
            steps_json.append({"move": "strip_first", "rows": cur.to_json()["rows"]})
    if args.json:
        payload = {
            "schema": SCHEMA,
            "command": "project",
            "i": args.i,
            "j": args.j,
            "input": t.to_json(),
            "result": result.to_json(),
        }
        if args.steps:
            payload["steps"] = steps_json
        _emit(payload)
    else:
        print(f"projection to [{args.i}, {args.j}]")
        if args.steps:
            for block in steps_text:
                print(block)
        print(render_tableau(result))
    return 0


def _resolve_primes(parser: argparse.ArgumentParser, flag: int | None) -> tuple[int, ...]:
    if flag is None:
        return (DEFAULT_PRIME, SECOND_PRIME)
    try:
        return (check_modulus(flag),)
    except BadProbeInput as exc:
        parser.error(str(exc))


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.nmax < 1:
        parser.error(f"--nmax must be at least 1, got {args.nmax}")
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    primes = _resolve_primes(parser, args.prime)
    descriptors = iter_descriptors(args.nmax)
    first = next(descriptors, None)
    if first is None:
        parser.error(f"no hypersurface descriptor has n <= {args.nmax}")
    t = args.trials
    reports, necessity_failures = [], 0
    for checked, d in enumerate(chain((first,), descriptors), start=1):
        rep = verify_conjecture(d, trials=t, seed=args.seed, primes=primes)
        necessity_failures += not rep.necessity_ok
        if args.json:
            reports.append(rep.to_json())
        else:
            status = "ok" if rep.necessity_ok else "NECESSITY FAILURE"
            print(
                f"{d.descriptor_id:<34} vanish {rep.f_vanishes_on_v}/{t}"
                f"  nonzero {rep.f_nonzero_on_richardson}/{t}"
                f"  jordan {rep.jordan_match}/{t}"
                f"  rank {rep.power_rank_ok}/{t}  {status}"
            )
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "command": "verify",
                "nmax": args.nmax,
                "trials": args.trials,
                "seed": args.seed,
                "primes": list(primes),
                "reports": reports,
                "necessity_failures": necessity_failures,
            }
        )
    else:
        print(
            f"checked {checked} descriptors with n <= {args.nmax}, "
            f"{t} trials each, primes {list(primes)}; "
            f"necessity failures: {necessity_failures}"
        )
    return 1 if necessity_failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbital",
        description="Hypersurface orbital varieties: tableaux, classification, defining equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rich = sub.add_parser("richardson", help="Richardson tableau of a tau-invariant")
    p_rich.add_argument("--tau", required=True, help="comma-separated simple root indices, '' for empty")
    p_rich.add_argument("--n", required=True, type=int, help="matrix size")
    p_rich.add_argument("--json", action="store_true")

    p_hyp = sub.add_parser(
        "hypersurfaces", help="enumerate descendants of a tau, or classify a tableau"
    )
    src = p_hyp.add_mutually_exclusive_group(required=True)
    src.add_argument("--tau", help="comma-separated simple root indices")
    src.add_argument("--tableau", help="path to a tableau JSON file")
    p_hyp.add_argument("--n", type=int, help="matrix size (with --tau)")
    p_hyp.add_argument("--generator", action="store_true", help="include f, weights, p_V")
    p_hyp.add_argument("--json", action="store_true")

    p_proj = sub.add_parser("project", help="restrict a tableau to a window [i, j]")
    p_proj.add_argument("--tableau", required=True, help="path to a tableau JSON file")
    p_proj.add_argument("-i", required=True, type=int, help="window start")
    p_proj.add_argument("-j", required=True, type=int, help="window end")
    p_proj.add_argument("--steps", action="store_true", help="show every move")
    p_proj.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="finite-field probes over all descriptors")
    p_ver.add_argument("--nmax", type=int, default=6, help="largest matrix size (default 6)")
    p_ver.add_argument("--trials", type=int, default=25, help="seeds per descriptor (default 25)")
    p_ver.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p_ver.add_argument(
        "--prime",
        type=int,
        default=None,
        help="single sampling prime override; a trial draws other points under it than "
        "the same prime sees in a two-prime run",
    )
    p_ver.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "richardson": cmd_richardson,
        "hypersurfaces": cmd_hypersurfaces,
        "project": cmd_project,
        "verify": cmd_verify,
    }
    try:
        status = handlers[args.command](parser, args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BadRange as exc:
        parser.error(str(exc))
    except OrbitalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader has gone: the flush at exit goes to devnull, and the
        # status is the shell's for a closed pipe, 128 + SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
