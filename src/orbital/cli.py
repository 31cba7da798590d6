"""Command-line interface.

Four subcommands: richardson (build and describe the maximal component of
a tau-invariant), hypersurfaces (enumerate or classify codimension-one
descendants, optionally with their defining equations), project (window
restriction of a tableau, optionally step by step), and verify (run the
finite-field probes over a sweep of descriptors).

Exit codes: 0 success, 1 a verification probe found a necessity failure,
2 usage errors (bad flags, malformed input), 3 a well-formed question
whose answer is "not applicable" (e.g. a tableau that is not a
hypersurface component).

Output is deterministic: same flags, same bytes. The ORBITAL_PRIME
environment variable overrides the default sampling prime; the --prime
flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BadRange, OrbitalError, TableauError
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
from .verify import DEFAULT_PRIME, SECOND_PRIME, verify_conjecture

SCHEMA = "orbital/v1"


def _parse_tau(parser: argparse.ArgumentParser, text: str, n: int) -> TauSet:
    text = text.strip()
    try:
        indices = [int(p) for p in text.split(",") if p.strip()] if text else []
        return TauSet(frozenset(indices), n)
    except ValueError as exc:
        parser.error(f"bad tau: {exc}")


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
    return " ".join(str(c) for c in chains(t_r))


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
                "chains": [[c.lo, c.hi] for c in chains(t_r)],
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
        lines.append(f"  p_V = {char_poly(d, rep)}")
    return lines


def _descriptor_json(d: HypersurfaceDescriptor, with_generator: bool) -> dict:
    out = d.to_json()
    if with_generator:
        rep = generator_report(d)
        out["generator"] = rep.to_json()
        out["char_poly"] = char_poly(d, rep).to_json()
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


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the bases above: exact for every p below 3.3e24."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        y = pow(a, d, p)
        if y == 1 or y == p - 1:
            continue
        for _ in range(s - 1):
            y = y * y % p
            if y == p - 1:
                break
        else:
            return False
    return True


def _resolve_primes(parser: argparse.ArgumentParser, flag: int | None) -> tuple[int, ...]:
    def checked(p: int) -> int:
        if p >= 2**64:
            parser.error(f"modulus {p} is too large: it must be below 2**64")
        if p < 3 or not _is_prime(p):
            parser.error(f"{p} is not an odd prime")
        return p

    if flag is not None:
        return (checked(flag),)
    env = os.environ.get("ORBITAL_PRIME")
    if env is not None:
        try:
            return (checked(int(env)),)
        except ValueError:
            parser.error(f"ORBITAL_PRIME is not an integer: {env!r}")
    return (DEFAULT_PRIME, SECOND_PRIME)


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.nmax < 1:
        parser.error(f"--nmax must be at least 1, got {args.nmax}")
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    primes = _resolve_primes(parser, args.prime)
    descriptors = list(iter_descriptors(args.nmax))
    if not descriptors:
        parser.error(f"no hypersurface descriptor has n <= {args.nmax}")
    reports = []
    necessity_failures = 0
    for d in descriptors:
        rep = verify_conjecture(d, trials=args.trials, seed=args.seed, primes=primes)
        reports.append((d, rep))
        if not rep.necessity_ok:
            necessity_failures += 1
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "command": "verify",
                "nmax": args.nmax,
                "trials": args.trials,
                "seed": args.seed,
                "primes": list(primes),
                "reports": [rep.to_json() for _, rep in reports],
                "necessity_failures": necessity_failures,
            }
        )
    else:
        t = args.trials
        for d, rep in reports:
            status = "ok" if rep.necessity_ok else "NECESSITY FAILURE"
            print(
                f"{d.descriptor_id:<34} vanish {rep.f_vanishes_on_v}/{t}"
                f"  nonzero {rep.f_nonzero_on_richardson}/{t}"
                f"  jordan {rep.jordan_match}/{t}"
                f"  rank {rep.power_rank_ok}/{t}  {status}"
            )
        print(
            f"checked {len(reports)} descriptors with n <= {args.nmax}, "
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
    p_ver.add_argument("--prime", type=int, default=None, help="single sampling prime override")
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
        return handlers[args.command](parser, args)
    except BadRange as exc:
        parser.error(str(exc))
    except OrbitalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
