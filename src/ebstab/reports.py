"""Report envelopes and deterministic serialization (human, json, csv).

A result record encodes as its ``payload()`` when it has one, else (any
dataclass) as {field name: value}; the encoding recurses into both.
JSON output is byte-deterministic for a fixed (problem, seed, flags)
triple: keys are sorted, floats go through repr, infinities become the
string "inf", and no wall-clock data is included.  It is written in one
pass over the encoded tree, in the layout of ``json.dumps(tree,
sort_keys=True, indent=2)`` and byte for byte its text, NaN bare as
``NaN``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math

import numpy as np

SCHEMA = "eb-report/1"

SWEEP_CSV_HEADER = "epsilon,u_star,beta_before,beta_after,tau_local,tau_global,verdict"


def make_envelope(command: str, problem: str, seed: int, results) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "problem": problem,
        "seed": seed,
        "results": results,
    }


_INF_TEXT = {math.inf: "inf", -math.inf: "-inf"}
_CONTAINERS = frozenset((dict, list, tuple, np.ndarray))


def _encode(obj):
    """Recursively convert to json-safe values; infinities become strings.
    A record without payload() encodes its dataclass fields in order.
    Exact scalar and container types skip the record probes."""
    kind = type(obj)
    if kind is float:
        return _INF_TEXT.get(obj, obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind not in _CONTAINERS:
        if hasattr(obj, "payload"):
            return _encode(obj.payload())
        if dataclasses.is_dataclass(obj):
            return {f.name: _encode(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return _INF_TEXT.get(f, f)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


_ESCAPE = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


# the text of a scalar of exact type, as json.dumps writes it
_SCALARS = {str: _ESCAPE, float: _float_text, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _write_json(obj, out: list, pad: str) -> None:
    """Append the text of obj to out, in json.dumps(obj, sort_keys=True,
    indent=2)'s layout; pad is the newline and indent of obj's line."""
    text = _SCALARS.get(type(obj))
    if text is not None:
        out.append(text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(obj):  # _ESCAPE refuses a key that is not a str
            value = obj[key]
            text = _SCALARS.get(type(value))
            if text is not None:
                out.append(sep + _ESCAPE(key) + ": " + text(value))
            else:
                out.append(sep + _ESCAPE(key) + ": ")
                _write_json(value, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for value in obj:
            text = _SCALARS.get(type(value))
            if text is not None:
                out.append(sep + text(value))
            else:
                out.append(sep)
                _write_json(value, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    else:
        # a subclass of str, int or float is written as its base type
        for base in (str, int, float):
            if isinstance(obj, base):
                out.append(_SCALARS[base](obj))
                return
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")


def emit_report(result, format: str = "human") -> str:
    """Serialize a result object or envelope dict in the requested format."""
    payload = _encode(result)
    if format == "json":
        return _to_json(payload)
    if format == "csv":
        return _to_csv(payload)
    if format == "human":
        buf = io.StringIO()
        _human(payload, buf, indent=0)
        return buf.getvalue()
    raise ValueError(f"unknown format '{format}'")


def _to_json(payload) -> str:
    out = []
    _write_json(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _to_csv(payload) -> str:
    rows = _find_rows(payload)
    if rows is not None:
        lines = [SWEEP_CSV_HEADER]
        for r in rows:
            u = ";".join(str(v) for v in r.get("u_star", []))
            lines.append(
                f"{r.get('epsilon')},{u},{r.get('beta_before')},"
                f"{r.get('beta_after')},{r.get('tau_local')},"
                f"{r.get('tau_global')},{r.get('verdict')}"
            )
        return "\n".join(lines) + "\n"
    lines = ["key,value"]
    for key, value in _flatten(payload):
        text = str(value).replace(",", ";")
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


def _find_rows(payload):
    if isinstance(payload, dict):
        if "rows" in payload and isinstance(payload["rows"], list):
            return payload["rows"]
        for v in payload.values():
            found = _find_rows(v)
            if found is not None:
                return found
    return None


def _flatten(payload, prefix=""):
    if isinstance(payload, dict):
        for k in sorted(payload):
            yield from _flatten(payload[k], f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), payload


def _human(payload, buf, indent: int):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                buf.write(f"{pad}{k}:\n")
                _human(v, buf, indent + 1)
            else:
                buf.write(f"{pad}{k}: {v}\n")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                buf.write(f"{pad}-\n")
                _human(v, buf, indent + 1)
            else:
                buf.write(f"{pad}- {v}\n")
    else:
        buf.write(f"{pad}{payload}\n")
