"""Command-line front end.

Subcommands: transform, degeneracy, spectrum, table, verify, plotdata.
Couplings are written flavor-tagged ("real:1.5", "imaginary:0.3"); complex
numbers serialize as {"re": .., "im": ..}; jobs round-trip through a
canonical JSON form (sorted keys, fixed separators).

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 singular or degenerate configuration.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import model, transform, verify
from .errors import (
    DegenerateDirectionError,
    DegenerateTransformError,
    DomainError,
    FlavorError,
    IndeterminateError,
    NumericalFailureError,
    RexoscError,
    ShapeError,
    SingularityError,
)
from .model import Eigenstate, OscillatorSpec, REConfig
from .transform import CouplingValue

_VALIDATION = (DomainError, ShapeError, FlavorError)
_NUMERICAL = (NumericalFailureError, IndeterminateError)
_SINGULAR = (SingularityError, DegenerateTransformError, DegenerateDirectionError)
_COUPLING_FLAGS = sorted({f for case in model.CASES.values() for f in case.flags})


def _complex_dict(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _coupling_dict(c: CouplingValue) -> dict:
    return {"flavor": c.flavor, "magnitude": c.magnitude}


def _coupling_from(d) -> CouplingValue:
    return CouplingValue(d["magnitude"], d["flavor"])


@dataclass(frozen=True)
class JobConfig:
    """One CLI job: spec, extension config, states and grid options."""

    spec: OscillatorSpec
    config: REConfig
    states: tuple
    grids: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "spec": {
                "dimension": self.spec.dimension,
                "frequencies": list(self.spec.frequencies),
                "case": self.spec.case,
                "couplings": {k: _coupling_dict(v)
                              for k, v in sorted(self.spec.couplings.items())},
            },
            "config": {"codimensions": list(self.config.codimensions)},
            "states": [["g" if lv is None else lv for lv in st.levels]
                       for st in self.states],
            "grids": dict(sorted(self.grids.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "JobConfig":
        s = d["spec"]
        spec = OscillatorSpec(s["dimension"], tuple(s["frequencies"]), s["case"],
                              {k: _coupling_from(v) for k, v in s["couplings"].items()})
        config = REConfig(tuple(d["config"]["codimensions"]))
        states = tuple(Eigenstate(tuple(None if x == "g" else int(x) for x in st))
                       for st in d["states"])
        return cls(spec, config, states, dict(d.get("grids", {})))

    @classmethod
    def from_json(cls, text: str) -> "JobConfig":
        return cls.from_dict(json.loads(text))


def _numbers(text: str, flag: str, kind=float) -> tuple:
    """Comma-separated numbers of one flag; a malformed entry is a DomainError."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_state(text: str, dimension: int) -> Eigenstate:
    parts = text.split(",")
    if len(parts) != dimension:
        raise DomainError(f"state {text!r} needs one level per axis")
    try:
        levels = tuple(None if p.strip() in ("g", "G") else int(p) for p in parts)
    except ValueError:
        raise DomainError(f"state {text!r} needs 'g' or an integer per axis") from None
    return Eigenstate(levels)


def _case_name(args) -> str | None:
    """The case the flags select: a 3D case by its ``--case`` alias (None if
    no case has it), otherwise the perturbed case ``--dim`` implies."""
    if not args.case:
        return next((name for name, case in model.CASES.items()
                     if case.alias is None and case.dimension == args.dim), "none")
    if args.dim != 3:
        raise DomainError("--case selects a 3D case and needs --dim 3")
    return next((name for name, case in model.CASES.items()
                 if case.alias == args.case), None)


def _given_couplings(args, name: str) -> dict:
    """The couplings the case's flags carry, parsed; a coupling flag the case
    does not read is a DomainError."""
    case = model.CASES[name]
    for flag in _COUPLING_FLAGS:
        if getattr(args, flag) and flag not in case.flags:
            raise DomainError(f"case {name} does not read --{flag}")
    return {c: CouplingValue.parse(getattr(args, f))
            for c, f in zip(case.couplings, case.flags) if getattr(args, f)}


def _build_spec(args) -> OscillatorSpec:
    omegas = _numbers(args.omega, "--omega")
    if len(omegas) != args.dim:
        raise DomainError("--omega must list one frequency per axis")
    name = _case_name(args)
    if name is None:
        raise DomainError(f"unknown 3D case {args.case!r}")
    case = model.CASES[name]
    if case.required_flags and not all(getattr(args, f) for f in case.flags):
        raise DomainError(f"case {case.alias} needs "
                          + " and ".join(f"--{f}" for f in case.flags))
    couplings = _given_couplings(args, name)
    if not case.required_flags:
        couplings = {c: couplings.get(c) or CouplingValue.zero() for c in case.couplings}
    if case.alias is None and not all(couplings.values()):
        # a perturbation implied by --dim is off until its flag is nonzero
        name, couplings = "none", {}
    return OscillatorSpec(args.dim, omegas, name, couplings)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_finite(*samples) -> None:
    """Refuse samples that overflowed: a row of inf or nan is not a result."""
    if not all(np.isfinite(a).all() for a in samples):
        raise NumericalFailureError("V or psi overflows on the requested points")


def _rational_weights(freqs) -> list | None:
    """Integer weights W_i with omega_i proportional to W_i, or None."""
    base = min(f.real for f in freqs)
    if not base > 0:  # a zero frequency has no ratio
        return None
    fracs = []
    for f in freqs:
        if abs(f.imag) > 1e-9 * abs(f):
            return None
        frac = Fraction(f.real / base).limit_denominator(64)
        if abs(f.real / base - float(frac)) > 1e-9 * max(1.0, f.real / base):
            return None
        fracs.append(frac)
    den = math.lcm(*(fr.denominator for fr in fracs))
    return [fr.numerator * (den // fr.denominator) for fr in fracs]


def _ratio_string(freqs) -> str | None:
    weights = _rational_weights(freqs)
    return None if weights is None else ":".join(map(str, weights))


# ------------------------------------------------------------- subcommands

def cmd_transform(args) -> int:
    spec = _build_spec(args)
    sys_ = spec.system
    out = {
        "case": spec.case,
        "tilde_frequencies": [_complex_dict(w) for w in sys_.tilde_frequencies],
        "potential_constant": _complex_dict(sys_.potential_constant),
        "linear": [[_complex_dict(z) for z in row]
                   for row in sys_.coordinate_map.linear],
        "shift": [_complex_dict(z) for z in sys_.coordinate_map.shift],
        "tilde_ratio": _ratio_string(sys_.tilde_frequencies) if sys_.is_real else None,
    }
    case = model.CASES[spec.case]
    verdict = (case.reality(spec.frequencies, spec.couplings) if case.reality
               else sys_.is_real)
    out["real_spectrum"] = bool(verdict)
    if isinstance(verdict, transform.RealityVerdict):
        out["certificate"] = verdict.certificate
    if case.mixing:
        out["mixing"] = _complex_dict(case.mixing(spec.frequencies, spec.couplings))
    _emit(args, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_degeneracy(args) -> int:
    try:
        ratio = Fraction(args.ratio)
    except (ValueError, ZeroDivisionError):
        raise DomainError(
            f"--ratio expects a fraction such as 1/2, got {args.ratio!r}") from None
    if args.dim not in (2, 3):
        raise DomainError("degeneracy solving applies to dimensions 2 and 3")
    omegas = _numbers(args.omega, "--omega")
    if len(omegas) != args.dim:
        raise DomainError("--omega must list one frequency per axis")
    name = _case_name(args)
    if name is None or model.CASES[name].degeneracy is None:
        raise DomainError(f"unknown case {args.case!r}")
    couplings = _given_couplings(args, name)
    omegas = model.check_case(name, omegas, couplings)
    coupling, freqs = model.CASES[name].degeneracy(ratio, omegas, couplings, args.flavor)
    out = {
        "coupling": _coupling_dict(coupling),
        "target_ratio": str(ratio),
        "tilde_frequencies": [_complex_dict(w) for w in freqs],
        "achieved_ratio": _ratio_string(freqs),
    }
    _emit(args, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_spectrum(args) -> int:
    job = _job_from_args(args)
    table = model.spectrum(job.spec, job.config, args.cutoff)
    if args.format == "json":
        out = {
            "frequencies_real": table.frequencies_real,
            "entries": [{"energy": e.energy, "multiplicity": e.multiplicity,
                         "states": [st.label() for st in e.states]}
                        for e in table.entries],
        }
        _emit(args, json.dumps(out, sort_keys=True, indent=2) + "\n")
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["energy", "multiplicity", "states"])
        for e in table.entries:
            w.writerow([f"{e.energy:.12g}", e.multiplicity,
                        ";".join(st.label() for st in e.states)])
        _emit(args, buf.getvalue())
    return 0


def cmd_table(args) -> int:
    spec = _build_spec(args)
    if args.max_m < 0:
        raise DomainError(f"--max-m must be nonnegative, got {args.max_m}")
    xs = _numbers(args.xs, "--xs")
    if not all(map(math.isfinite, xs)):
        raise DomainError(f"--xs must be finite, got {args.xs!r}")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["m", "x", "re_V", "im_V", "re_psi0", "im_psi0",
                "re_psi1", "im_psi1"])
    pts = np.array([xs], dtype=complex)
    for m in range(args.max_m + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            plan = model.plan(spec, REConfig((m,)), pts, validate=False)
            v = plan.potential(pts)
            p0 = plan.psi(Eigenstate((None,)))
            p1 = plan.psi(Eigenstate((0,)))
        _require_finite(v, p0, p1)
        for i, x in enumerate(xs):
            w.writerow([m, f"{x:.12g}", f"{v[i].real:.12g}", f"{v[i].imag:.12g}",
                        f"{p0[i].real:.12g}", f"{p0[i].imag:.12g}",
                        f"{p1[i].real:.12g}", f"{p1[i].imag:.12g}"])
    _emit(args, buf.getvalue())
    return 0


def _job_from_args(args) -> JobConfig:
    if getattr(args, "job", None):
        try:
            with open(args.job) as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read job file {args.job!r}: {exc.strerror}") from None
        try:
            job = JobConfig.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"job file {args.job!r} is not a valid job: {exc}") from None
        if not job.states:
            raise DomainError(f"job file {args.job!r} lists no states")
        return job
    spec = _build_spec(args)
    ms = _numbers(args.m, "--m", int) if args.m else (0,) * spec.dimension
    config = REConfig(ms)
    states = tuple(_parse_state(s, spec.dimension) for s in args.state) \
        if args.state else (Eigenstate.ground(spec.dimension),)
    grids = {"n_points": args.points}
    if getattr(args, "spacing", None) is not None:
        grids["spacing"] = args.spacing
    job = JobConfig(spec, config, states, grids)
    if getattr(args, "emit_job", None):
        with open(args.emit_job, "w") as fh:
            fh.write(job.to_json())
    return job


def _job_grids(job: JobConfig) -> list:
    """The job's grids (``--points`` per axis, or ``--spacing``); a mesh above
    verify.MAX_MESH_POINTS is refused before anything is allocated."""
    try:
        n_points = int(job.grids.get("n_points", 4001))
        spacing = job.grids.get("spacing")
        spacing = None if spacing is None else float(spacing)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"grid settings must be numbers, got {job.grids}") from None
    return verify.suggest_grids(job.spec, n_points=n_points, spacing=spacing)


def cmd_verify(args) -> int:
    job = _job_from_args(args)
    spec, config = job.spec, job.config
    model.validate_config(spec, config)
    spec.system.require_bound_states()
    grids = _job_grids(job)
    poles = [{"axis": p.axis, "coordinate": p.coordinate}
             for p in verify.pole_scan(spec, config)]
    job_plan = verify.MeshPlan(spec, config, grids)
    images = [verify.ParityImage(job_plan, op) for op in model.pt_classification(spec)]

    def check(state):
        # one pass per state: psi on the mesh once, its residual, then every
        # parity fit against psi on the operator's image
        psi = job_plan.psi(state)
        residual, _ = job_plan.residual(state, psi)
        reference = verify.pt_reference(psi, job_plan.psi_max()) if images else None
        fits = []
        for image in images:
            try:
                fits.append(verify.pt_fit(reference, image.psi(state, psi)))
            except IndeterminateError as exc:
                fits.append(exc)
        return residual, fits

    residuals, fits = zip(*map(check, job.states))
    pt_values = {}
    for image, vals in zip(images, zip(*fits)):
        failed = [v for v in vals if isinstance(v, IndeterminateError)]
        pt_values[image.parity.name] = (str(failed[0]) if failed else
                                        [_complex_dict(v) for v in vals])
    del job_plan, images

    gram = ([[_complex_dict(z) for z in row]
             for row in verify.orthogonality_gram(spec, config, job.states)]
            if spec.is_hermitian and spec.system.is_real else None)

    out = {
        "max_residual": max(residuals),
        "ground_energy": _complex_dict(model.ground_energy(spec, config)),
        "poles": poles,
        "pt_eigenvalues": pt_values,
        "gram": gram,
        "states": [st.label() for st in job.states],
    }
    _emit(args, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_plotdata(args) -> int:
    job = _job_from_args(args)
    spec, config = job.spec, job.config
    state = job.states[0]
    if spec.dimension not in (1, 2):
        raise DomainError("plot grids are emitted for dimensions 1 and 2")
    spec.system.require_bound_states()
    grids = _job_grids(job)
    if args.half_width is not None:
        grids = [verify.Grid(g.center, args.half_width, g.n_points) for g in grids]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["x", "y", "re_V", "im_V", "re_psi", "im_psi"])
    with np.errstate(over="ignore", invalid="ignore"):
        pts = verify._mesh(grids)
        plan = model.plan(spec, config, pts, validate=False)
        v = plan.potential(pts)
        p = plan.psi(state)
    _require_finite(v, p)
    if spec.dimension == 1:
        for i, x in enumerate(grids[0].points):
            w.writerow([f"{x:.12g}", "0", f"{v[i].real:.12g}", f"{v[i].imag:.12g}",
                        f"{p[i].real:.12g}", f"{p[i].imag:.12g}"])
    else:
        xs, ys = grids[0].points, grids[1].points
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                w.writerow([f"{x:.12g}", f"{y:.12g}",
                            f"{v[i, j].real:.12g}", f"{v[i, j].imag:.12g}",
                            f"{p[i, j].real:.12g}", f"{p[i, j].imag:.12g}"])
    _emit(args, buf.getvalue())
    return 0


# ------------------------------------------------------------------ parser

def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--omega", type=str, default="1")
    p.add_argument("--linear", type=str, default=None,
                   help="linear coupling, e.g. imaginary:1")
    p.add_argument("--coupling", type=str, default=None,
                   help="quadratic coupling, e.g. real:1.3229")
    p.add_argument("--case", type=str, default=None,
                   help="3D case: lq, q1, or q2")
    p.add_argument("--lambda1", type=str, default=None)
    p.add_argument("--lambda2", type=str, default=None)
    p.add_argument("--lambda3", type=str, default=None)
    p.add_argument("--out", type=str, default=None)


def _add_job_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=str, default=None, help="co-dimensions, e.g. 0,2")
    p.add_argument("--state", action="append", default=None,
                   help="per-axis levels, 'g' for ground (repeatable)")
    p.add_argument("--points", type=int, default=4001)
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--job", type=str, default=None, help="load a JSON job file")
    p.add_argument("--emit-job", type=str, default=None,
                   help="write the canonical JSON job file")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError: one line and exit 1, like bad values."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="rexosc",
        description="Rationally extended oscillators: transforms, spectra, "
                    "and verification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="decoupling map and tilde frequencies")
    _add_spec_flags(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("degeneracy", help="solve for the degeneracy coupling")
    _add_spec_flags(p)
    p.add_argument("--ratio", type=str, required=True, help="target ratio, e.g. 1/2")
    p.add_argument("--flavor", choices=["real", "imaginary"], default=None)
    p.set_defaults(fn=cmd_degeneracy)

    p = sub.add_parser("spectrum", help="degeneracy-grouped level table")
    _add_spec_flags(p)
    _add_job_flags(p)
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("table", help="closed-form 1D potential/eigenfunction samples")
    p.add_argument("--omega", type=str, default="2")
    p.add_argument("--linear", type=str, default=None)
    p.add_argument("--max-m", type=int, default=3)
    p.add_argument("--xs", type=str, default="-1.7,-0.9,0.4,1.1,2.3")
    p.add_argument("--out", type=str, default=None)
    # the spec flags table lacks read as unset, so it builds a 1D spec
    p.set_defaults(fn=cmd_table, dim=1, case=None, **dict.fromkeys(_COUPLING_FLAGS))

    p = sub.add_parser("verify", help="residuals, poles, PT eigenvalues, Gram")
    _add_spec_flags(p)
    _add_job_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("plotdata", help="grid samples of Re/Im V and psi")
    _add_spec_flags(p)
    _add_job_flags(p)
    p.add_argument("--half-width", type=float, default=None)
    p.set_defaults(fn=cmd_plotdata)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _VALIDATION as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except _SINGULAR as exc:
        print(f"singular configuration: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        # Python float arithmetic raises where NumPy would return inf
        print("numerical failure: a value overflows the float range", file=sys.stderr)
        return 2
    except RexoscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
