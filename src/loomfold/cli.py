"""Command-line front end: classification, folding data, polynomial tables,
and the mode-level relation verifier, with deterministic JSON output.

Exit codes: 0 all pass, 1 relation failure, 2 input rejected.  `verify`
brackets exactly at every degree and never exits 3; code 3 is kept for a
command that truncates to a window.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from loomfold import catalog as catalog_mod
from loomfold.cartan import Gcm
from loomfold.errors import JobError, LoomfoldError, ScopeViolation
from loomfold.folding import (
    fold_data,
    index_pairs,
    tuple_sets,
    tuple_sets_case_analysis,
    validate_aut,
)
from loomfold.polys import (
    LPoly,
    SerreFamily,
    drinfeld_poly_closed,
    drinfeld_poly_omega,
    family_f,
    family_p,
    family_qlimit,
    locality_poly,
)
from loomfold.presentation import Verifier
from loomfold.realize import Realization

SCHEMA = 2


def _emit(payload: dict):
    payload = {"schema": SCHEMA, **payload}
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


def _fail(code: int, kind: str, message: str):
    _emit({"error": {"kind": kind, "message": message}})
    sys.exit(code)


def _mapped_errors(command):
    """Run a command; a LoomfoldError it raises becomes an error payload and
    exit code 2 (input rejected)."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except LoomfoldError as exc:
            _fail(2, type(exc).__name__, str(exc))

    return run


def _load_job(input_path: str | None, entry: str | None):
    if entry is not None and input_path is not None:
        raise JobError("provide --input FILE or --entry NAME, not both")
    if entry is not None:
        ce = catalog_mod.entry_by_name(entry)
        return ce.gcm, ce.mu, ce.name
    if not input_path:
        raise JobError("provide --input FILE or --entry NAME")
    raw = catalog_mod.read_json(input_path, "job file")
    if not isinstance(raw, dict) or "cartan" not in raw:
        raise JobError('job file must be an object with a "cartan" matrix')
    catalog_mod.known_keys(raw, ("cartan", "mu", "name"), "job file")
    gcm = Gcm(raw["cartan"])
    mu = validate_aut(gcm, raw.get("mu", list(range(gcm.n))))
    name = raw.get("name", "job")
    if not isinstance(name, str):
        raise JobError('job "name" must be a string')
    return gcm, mu, name


def _family_source(selector: str) -> tuple:
    """(kind, file contents) of a family selector.  The file of "f:" or
    "user:" is read and parsed here, once for any number of matrices."""
    if selector in ("p", "qlimit"):
        return selector, None
    if selector.startswith("f:"):
        return "f", _read_pairs(selector[2:], "factor")
    if selector.startswith("user:"):
        return "user", _read_pairs(selector[5:], "family")
    raise JobError(f"unknown family selector {selector!r}")


def _family(gcm, mu, source: tuple) -> tuple[SerreFamily, bool]:
    """The family of a `_family_source` on one matrix; returns (family,
    is_window_certificate)."""
    kind, contents = source
    if kind == "p":
        return family_p(gcm, mu), False
    if kind == "qlimit":
        return family_qlimit(gcm, mu), True
    if kind == "f":
        return family_f(family_p(gcm, mu), _load_extra_factors(gcm, contents)), False
    return _load_user_family(gcm, contents), True


# the keys that a family or factor file may hold, and each of its pairs
_FILE_KEYS = {
    "family": (("name", "pairs"), ("i", "j", "terms")),
    "factor": (("pairs",), ("i", "j", "poly")),
}


def _read_pairs(path: str, what: str) -> tuple[dict, list]:
    """The JSON object in a family or factor file, and its "pairs" list."""
    raw = catalog_mod.read_json(path, f"{what} file")
    if not isinstance(raw, dict):
        raise JobError(f"{what} file must hold a JSON object")
    keys, item_keys = _FILE_KEYS[what]
    catalog_mod.known_keys(raw, keys, f"{what} file")
    pairs = raw.get("pairs", [])
    if not isinstance(pairs, list) or not all(isinstance(item, dict) for item in pairs):
        raise JobError(f'{what} file: "pairs" must be a list of objects')
    for item in pairs:
        catalog_mod.known_keys(item, item_keys, f"{what} file pair")
    return raw, pairs


def _node(gcm, item: dict, key: str) -> int:
    value = item.get(key)
    if type(value) is not int or not 0 <= value < gcm.n:
        raise JobError(f'"{key}" must be a node index in 0..{gcm.n - 1}, got {value!r}')
    return value


def _poly(obj, where: str) -> LPoly:
    try:
        return LPoly.from_json(obj)
    except ValueError as exc:
        raise JobError(f"{where}: {exc}") from exc


def _permutation(key: str, arity: int, where: str) -> tuple:
    parts = key.split(",")
    if all(_decimal(p) for p in parts):
        sigma = tuple(int(p) for p in parts)
        if sorted(sigma) == list(range(arity)):
            return sigma
    raise JobError(f"{where}: {key!r} is not a permutation of 0..{arity - 1}")


def _pair(gcm, item: dict, seen: dict, what: str) -> tuple[int, int]:
    """The (i, j) of a file item, which no earlier item of the file names."""
    pair = _node(gcm, item, "i"), _node(gcm, item, "j")
    if pair in seen:
        raise JobError(f"{what} pair {pair} appears twice")
    return pair


def _load_extra_factors(gcm, contents: tuple) -> dict:
    _, pairs = contents
    out = {}
    for item in pairs:
        i, j = _pair(gcm, item, out, "factor")
        out[(i, j)] = _poly(item.get("poly"), f"factor pair ({i},{j})")
    return out


def _load_user_family(gcm, contents: tuple) -> SerreFamily:
    raw, pairs = contents
    name = raw.get("name", "user")
    if not isinstance(name, str):
        raise JobError('family "name" must be a string')
    fam = SerreFamily(name)
    for item in pairs:
        i, j = _pair(gcm, item, fam.entries, "family")
        where = f"family pair ({i},{j})"
        terms = item.get("terms")
        if not isinstance(terms, dict) or not terms:
            raise JobError(f'{where} needs a non-empty "terms" object')
        sigmas = {}
        for key, poly_json in terms.items():
            poly = _poly(poly_json, f"{where}, permutation {key}")
            if sigmas and poly.vars != next(iter(sigmas.values())).vars:
                raise JobError(f"{where}: every permutation must use the same variables")
            sigma = _permutation(key, len(poly.vars) - 1, where)
            if sigma in sigmas:
                raise JobError(f"{where}: permutation {key!r} repeats {sigma}")
            sigmas[sigma] = poly
        if not any(sigmas.values()):
            raise JobError(f"{where}: every polynomial is zero, so its relation would read 0 = 0")
        fam.entries[(i, j)] = sigmas
    if not fam.entries:
        raise JobError("family file holds no pairs")
    fam.assert_homogeneous()
    return fam


def _decimal(text: str) -> bool:
    """Whether `text` is an ASCII decimal integer >= 0, read as the sigma
    keys of a family file are: no sign, space, underscore or other digit."""
    return text.isascii() and text.isdigit()


@click.group()
def main():
    """Exact folding data, weight polynomials and relation checking."""


_input_opt = click.option("--input", "input_path", type=click.Path(), default=None)
_entry_opt = click.option("--entry", default=None, help="built-in catalog entry name")


@main.command()
@_input_opt
@_entry_opt
@_mapped_errors
def classify(input_path, entry):
    """Classify the matrix and report its type label."""
    gcm, mu, name = _load_job(input_path, entry)
    cls = gcm.classify()
    payload = {"name": name, **cls.to_json()}
    payload["label"] = cls.label
    if cls.kind == "affine":
        payload["null_labels"] = list(gcm.null_labels())
    _emit(payload)


@main.command()
@_input_opt
@_entry_opt
@_mapped_errors
def fold(input_path, entry):
    """Orbit data, linking numbers and the root-tuple sets."""
    gcm, mu, name = _load_job(input_path, entry)
    fd = fold_data(gcm, mu)
    sets = tuple_sets(gcm, mu, fd)
    _emit(
        {
            "name": name,
            "classification": gcm.classify().to_json(),
            "fold": fd.to_json(gcm, mu),
            "tuples": sets.to_json(),
        }
    )


@main.command()
@_input_opt
@_entry_opt
@click.option("--family", "family_sel")
@click.option("--format", "fmt", type=click.Choice(["json", "latex"]), default="json")
@click.option("--crosscheck", "do_cross", is_flag=True, help="emit both weight constructions")
@_mapped_errors
def polys(input_path, entry, family_sel, fmt, do_cross):
    """Locality and weight polynomial tables."""
    if do_cross and fmt == "latex":
        raise JobError("--crosscheck needs --format json: the LaTeX table has no closed weights")
    if family_sel is not None and fmt == "latex":
        raise JobError("--family needs --format json: the LaTeX table prints no family")
    gcm, mu, name = _load_job(input_path, entry)
    fd = fold_data(gcm, mu)
    sets = tuple_sets(gcm, mu, fd)
    fam, _ = _family(gcm, mu, _family_source(family_sel or "p"))
    pairs = []
    lines = []
    for i, j in index_pairs(gcm):
        om = drinfeld_poly_omega(sets, i, j, mu.order)
        loc = locality_poly(gcm, mu, i, j)
        if fmt == "latex":
            lines.append(rf"p_{{{i}{j}}}(z,w) &= {om.latex()} \\")
            lines.append(rf"f_{{{i}{j}}}(z,w) &= {loc.latex()} \\")
            continue
        rec = {"pair": [i, j], "locality": loc.to_json(), "weight": om.to_json()}
        if do_cross:
            cl = drinfeld_poly_closed(gcm, mu, fd, i, j)
            rec["weight_closed"] = cl.to_json()
            rec["constructions_agree"] = om == cl
        pairs.append(rec)
    if fmt == "latex":
        click.echo("\n".join(lines))
        return
    _emit({"name": name, "pairs": pairs, "family": fam.to_json()})


def _verify_one(gcm, mu, name, family, mode_bound):
    """The payload and exit code of one matrix, for the (family,
    is_window_certificate) of `_family`."""
    fam, certificate_only = family
    report = Verifier(Realization(gcm, mu)).run_suite(
        fam, mode_bound, certificate=certificate_only
    )
    payload = {
        "name": name,
        "classification": gcm.classify().to_json(),
        "family": fam.name,
        "mode_bound": mode_bound,
        "report": report.to_json(),
    }
    if certificate_only:
        payload["note"] = "window-scale certificate: a pass covers the tested grid only"
    return payload, 0 if report.passed else 1


def _combined_exit_code(codes: list) -> int:
    """The exit code of several entries: a failed relation outranks a
    rejected input, which outranks a clean pass."""
    return max(codes, key=(0, 2, 1).index, default=0)


@main.command()
@_input_opt
@_entry_opt
@click.option("--modes", "mode_text", default="2")
@click.option("--family", "family_sel", default="p")
@click.option("--window", "window_text", default=None, hidden=True)
@_mapped_errors
def verify(input_path, entry, mode_text, family_sel, window_text):
    """Check every relation of the presentation on the realization."""
    if window_text is not None:
        raise JobError("verify brackets exactly at every degree and takes no --window")
    if not _decimal(mode_text):
        raise JobError(f"--modes expects a decimal integer >= 0, got {mode_text!r}")
    mode_bound = int(mode_text)
    if entry == "all" and input_path is None:  # with --input, _load_job rejects both
        entries = catalog_mod.load_entries()
        source = _family_source(family_sel)
        results = [_verify_worker(e, source, mode_bound) for e in entries]
        payloads = [p for p, _ in results]
        passed = all("error" not in p and p["report"]["pass"] for p in payloads)
        _emit({"entries": payloads, "pass": passed})
        sys.exit(_combined_exit_code([code for _, code in results]))
    gcm, mu, name = _load_job(input_path, entry)
    family = _family(gcm, mu, _family_source(family_sel))
    payload, code = _verify_one(gcm, mu, name, family, mode_bound)
    _emit(payload)
    sys.exit(code)


def _verify_worker(ce, source, mode_bound: int):
    """One catalog entry of --entry all, as listed by the one read of the
    catalog.  A family the entry's matrix rejects becomes that entry's
    error payload and exit code 2, so that it hides no other entry's
    result."""
    name = ce.name
    try:
        family = _family(ce.gcm, ce.mu, source)
    except (JobError, ScopeViolation) as exc:
        return _entry_error(name, exc), 2
    return _verify_one(ce.gcm, ce.mu, name, family, mode_bound)


def _entry_error(name: str, exc: LoomfoldError) -> dict:
    return {"name": name, "error": {"kind": type(exc).__name__, "message": str(exc)}}


@main.command()
@_input_opt
@_entry_opt
@_mapped_errors
def crosscheck(input_path, entry):
    """Dual-construction checks: weights and root-tuple sets, plus the
    observed weight symmetry per ordered pair."""
    gcm, mu, name = _load_job(input_path, entry)
    fd = fold_data(gcm, mu)
    sets = tuple_sets(gcm, mu, fd)
    oracle = tuple_sets_case_analysis(gcm, mu, fd)
    pairs = []
    all_ok = True
    for i, j in index_pairs(gcm):
        om = drinfeld_poly_omega(sets, i, j, mu.order)
        cl = drinfeld_poly_closed(gcm, mu, fd, i, j)
        ps, qs = sets[(i, j)], oracle[(i, j)]
        tuples_agree = (
            ps.upsilon == qs.upsilon
            and ps.upsilon_real == qs.upsilon_real
            and ps.upsilon_imag == qs.upsilon_imag
        )
        rev = drinfeld_poly_omega(sets, j, i, mu.order) if (j, i) in sets.pairs else None
        rec = {
            "pair": [i, j],
            "weights_agree": om == cl,
            "tuple_sets_agree": tuples_agree,
            "weight": om.to_json(),
        }
        if rev is not None:
            rec["pair_symmetric"] = om == rev.rename(om.vars)
        all_ok = all_ok and rec["weights_agree"] and tuples_agree
        pairs.append(rec)
    _emit({"name": name, "pairs": pairs, "pass": all_ok})
    sys.exit(0 if all_ok else 1)


@main.command("catalog")
@click.option("--path", default=None, help="explicit catalog file")
@_mapped_errors
def catalog_cmd(path):
    """List catalog entries with their classifications."""
    listing = []
    for e in catalog_mod.load_entries(path):
        cls = e.gcm.classify()
        listing.append({**e.to_json(), "label": cls.label, "order": e.mu.order})
    _emit({"entries": listing})


if __name__ == "__main__":
    main()
