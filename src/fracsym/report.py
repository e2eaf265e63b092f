"""Machine-readable report documents and their emission.

The document schema is stable: top-level fields are exactly
``case, generators[], invariants{r,z}, reduced_ode, checks[], config,
version``.  Emission is deterministic: identical (config, seed) pairs
produce byte-identical files (sorted keys, fixed separators, no
timestamps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__

__all__ = ["CheckRecord", "ReportDoc", "emit_report", "read_report",
           "STATUS_PASS", "STATUS_FAIL", "STATUS_ADJUDICATED",
           "STATUS_SKIPPED"]

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_ADJUDICATED = "mismatch-adjudicated"
# a check that does not apply to the spec; its detail names why, and it
# counts as a pass
STATUS_SKIPPED = "skipped"


@dataclass
class CheckRecord:
    name: str
    status: str
    deviation: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "deviation": self.deviation, "detail": self.detail}


@dataclass
class ReportDoc:
    case: str
    generators: list = field(default_factory=list)  # [{xi_t, xi_x, eta}]
    invariants: dict = field(default_factory=dict)  # {"r": str, "z": str}
    reduced_ode: str = ""
    checks: list = field(default_factory=list)      # [CheckRecord]
    config: dict = field(default_factory=dict)
    version: str = __version__

    def add_check(self, name: str, status: str, deviation=None,
                  detail: str = "") -> CheckRecord:
        rec = CheckRecord(name=name, status=status, deviation=deviation,
                          detail=detail)
        self.checks.append(rec)
        return rec

    @property
    def worst_status(self) -> str:
        statuses = [c.status for c in self.checks]
        if STATUS_FAIL in statuses:
            return STATUS_FAIL
        if STATUS_ADJUDICATED in statuses:
            return STATUS_ADJUDICATED
        return STATUS_PASS

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "generators": self.generators,
            "invariants": self.invariants,
            "reduced_ode": self.reduced_ode,
            "checks": [c.as_dict() for c in self.checks],
            "config": self.config,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def emit_report(doc: ReportDoc, path=None, stream=None) -> str:
    """Write the JSON document (if a path is given) and a human-readable
    summary to the stream (stdout by default).  Returns the JSON text."""
    import sys

    payload = doc.to_json()
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise OSError(f"cannot write report to {path!r}: {exc}") from exc

    out = stream if stream is not None else sys.stdout
    print(f"case {doc.case}  (tool {doc.version})", file=out)
    for i, gen in enumerate(doc.generators):
        print(f"  X{i + 1}: xi_t = {gen['xi_t']}; xi_x = {gen['xi_x']}; "
              f"eta = {gen['eta']}", file=out)
    if doc.invariants:
        print(f"  invariants: r = {doc.invariants.get('r', '-')}, "
              f"z = {doc.invariants.get('z', '-')}", file=out)
    if doc.reduced_ode:
        print(f"  reduced ODE: {doc.reduced_ode} = 0", file=out)
    for c in doc.checks:
        dev = "" if c.deviation is None else f" (deviation {c.deviation:.3e})"
        detail = f" -- {c.detail}" if c.detail and c.status != STATUS_PASS else ""
        print(f"  [{c.status:>20}] {c.name}{dev}{detail}", file=out)
    if path:
        print(f"  report written to {path}", file=out)
    return payload


_STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_ADJUDICATED, STATUS_SKIPPED)
# the field types of an emitted document, a generator and a check
_DOC_FIELDS = {"case": str, "generators": list, "invariants": dict,
               "reduced_ode": str, "checks": list, "config": dict,
               "version": str}
_GENERATOR_FIELDS = dict.fromkeys(("xi_t", "xi_x", "eta"), str)
_CHECK_FIELDS = {"name": str, "status": str,
                 "deviation": (float, int, type(None)), "detail": str}


def _checked(obj, fields: dict, where: str) -> dict:
    """obj, when it is an object holding each of ``fields`` with its type;
    else a ValueError naming the first bad field below ``where``."""
    if not isinstance(obj, dict):
        raise ValueError(f"report field {where[:-1]} must be an object"
                         if where else "report must be a JSON object")
    for key, kind in fields.items():
        if key not in obj or not isinstance(obj[key], kind):
            raise ValueError(f"report field {where}{key} is missing or not "
                             f"{getattr(kind, '__name__', 'a number or null')}")
    return obj


def read_report(path) -> ReportDoc:
    """Re-read an emitted document; inverse of emit_report for the JSON part.

    The file comes from outside, so its shape is checked: a bad one raises
    a ValueError naming the first bad field."""
    with open(path, encoding="utf-8") as fh:
        data = _checked(json.load(fh), _DOC_FIELDS, "")
    for i, gen in enumerate(data["generators"]):
        _checked(gen, _GENERATOR_FIELDS, f"generators[{i}].")
    checks = []
    for i, c in enumerate(data["checks"]):
        where = f"checks[{i}]."
        c = _checked(c, _CHECK_FIELDS, where)
        if c["status"] not in _STATUSES:
            raise ValueError(f"report field {where}status must be one of "
                             f"{', '.join(_STATUSES)}")
        checks.append(CheckRecord(*(c[key] for key in _CHECK_FIELDS)))
    fields = {key: data[key] for key in _DOC_FIELDS}
    return ReportDoc(**{**fields, "checks": checks})
