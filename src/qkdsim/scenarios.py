"""Scenario construction: built-in systems and the scenario file format.

Scenario files are JSON with every complex number written as an explicit
[real, imag] pair, so files stay portable across tooling. States are given
as amplitude vectors per letter (pure states); the channel is either a
named builtin or an explicit list of Kraus matrices.

Builtins:

* ``paper-example`` - two-qubit letters through an identity channel with an
  ideal eavesdropper: each letter sends a pure qubit pair with per-qubit
  overlap ``s``, one qubit to the receiver and an identical one to the
  adversary.
* ``orthogonal`` - the same system at overlap 0 (classical equality case).
* ``bsc-pair`` - a diagonal embedding of two classical binary symmetric
  channels with crossovers (eps_b, eps_e); carries the classical channel
  pair so the wiretap condition applies directly.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .channels import CqEnsemble, QuantumChannel, identity_channel
from .errors import ValidationError
from .measurements import ClassicalChannel
from .simulation import Scenario
from .states import factor_dims, hermitian_eigensystem, unit_vector

FORMAT_TAG = "qkdsim-scenario-v1"
BUILTIN_NAMES = ("paper-example", "orthogonal", "bsc-pair")


class ScenarioFormatError(ValueError):
    """A scenario file failed to parse; the message names the bad field."""


def _letter(amplitudes) -> np.ndarray:
    """|v><v| of a validated unit vector v; the ensemble checks it as a state."""
    v = unit_vector(amplitudes)
    return np.outer(v, v.conj())


def paper_example(overlap: float = 0.5) -> Scenario:
    """Ideal-eavesdropping system with per-qubit letter overlap ``overlap``."""
    s = float(overlap)
    if not 0.0 <= s <= 1.0:
        raise ValidationError("overlap", f"overlap must be in [0, 1], got {s}")
    phi = np.array([1.0, 0.0])
    psi = np.array([s, math.sqrt(max(1.0 - s * s, 0.0))])
    qubits = [_letter(phi), _letter(psi)]
    ensemble = CqEnsemble([0.5, 0.5], [np.kron(q, q) for q in qubits])
    theta = identity_channel(4, (2, 2))
    return Scenario(
        name=f"paper-example(s={s!r})", key_count=2, ensemble=ensemble, theta=theta
    )


def orthogonal() -> Scenario:
    sc = paper_example(0.0)
    return Scenario(
        name="orthogonal", key_count=2, ensemble=sc.ensemble, theta=sc.theta
    )


def _bsc_rows(eps: float) -> np.ndarray:
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("crossover", f"crossover must be in [0, 1], got {eps}")
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])


def bsc_pair(eps_b: float, eps_e: float) -> Scenario:
    """Classical wiretap pair embedded diagonally in a qubit pair output.

    The channel measures the input letter in the computational basis and
    prepares independent receiver/adversary bits through the two BSCs, so
    its marginals reproduce the classical channels exactly.
    """
    v_rows = _bsc_rows(float(eps_b))
    w_rows = _bsc_rows(float(eps_e))
    ops = []
    basis = np.eye(2)
    for a in range(2):
        for b in range(2):
            for e in range(2):
                amp = math.sqrt(v_rows[a, b] * w_rows[a, e])
                if amp == 0.0:
                    continue
                k = amp * np.outer(np.kron(basis[b], basis[e]), basis[a])
                ops.append(k)
    theta = QuantumChannel(ops, (2, 2))
    ensemble = CqEnsemble([0.5, 0.5], [_letter([1, 0]), _letter([0, 1])])
    return Scenario(
        name=f"bsc-pair({eps_b:g},{eps_e:g})",
        key_count=2,
        ensemble=ensemble,
        theta=theta,
        classical_pair=(ClassicalChannel(v_rows), ClassicalChannel(w_rows)),
    )


def load_scenario(source: str, params=(), overlap: float | None = None) -> Scenario:
    """Resolve a builtin name or read a scenario file.

    ``overlap`` feeds the paper-example overlap (default 0.5) and ``params``
    the two bsc-pair crossovers; a parameter the scenario would ignore is refused.
    """
    params = tuple(float(x) for x in params)
    if overlap is not None and source != "paper-example":
        raise ScenarioFormatError(f"--overlap: only paper-example takes it, not {source}")
    if params and source != "bsc-pair":
        raise ScenarioFormatError(f"parameters: only bsc-pair takes them, got {list(params)}")
    if source == "paper-example":
        return paper_example(0.5 if overlap is None else overlap)
    if source == "orthogonal":
        return orthogonal()
    if source == "bsc-pair":
        if len(params) != 2:
            raise ScenarioFormatError("bsc-pair needs two crossover parameters (eps_b eps_e)")
        return bsc_pair(*params)
    return load_scenario_file(source)


def _complex_list(raw, where: str) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in raw])
    except (TypeError, ValueError):
        raise ScenarioFormatError(f"{where}: expected a list of [real, imag] pairs")


def _complex_matrix(raw, where: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ScenarioFormatError(f"{where}: expected a non-empty list of rows")
    return np.stack([_complex_list(row, f"{where}[{i}]") for i, row in enumerate(raw)])


def _coerce(raw, convert, where: str):
    """convert(raw), with any type or value failure reported against ``where``."""
    try:
        return convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"{where}: cannot read {raw!r} ({exc})") from None


def _integer(raw) -> int:
    if int(raw) != raw:
        raise ValueError("not an integer")
    return int(raw)


def _float_array(raw) -> np.ndarray:
    return np.array(raw, dtype=float)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its file form.

    Raw fields are coerced under a guard, so a missing or mistyped field
    becomes a ``ScenarioFormatError`` naming it; the constructors then check
    the physics (normalization, completeness, finiteness).
    """
    if data.get("format") != FORMAT_TAG:
        raise ScenarioFormatError(f"format: expected {FORMAT_TAG!r}, got {data.get('format')!r}")
    for key in ("name", "key_count", "alphabet_size", "states", "channel", "output_dims"):
        if key not in data:
            raise ScenarioFormatError(f"{key}: field missing")
    name = str(data["name"])
    key_count = _coerce(data["key_count"], _integer, "key_count")
    size = _coerce(data["alphabet_size"], _integer, "alphabet_size")
    if size < 1:
        raise ScenarioFormatError(f"alphabet_size: cannot read {size} (need at least one letter)")
    states_raw = data["states"]
    states = []
    for a in range(size):
        entry = states_raw.get(str(a)) if isinstance(states_raw, dict) else None
        if entry is None:
            raise ScenarioFormatError(f"states: state for letter {a} missing")
        amps = _complex_list(entry, f"states[{a}]")
        try:
            states.append(_letter(amps))
        except ValidationError as exc:
            raise ScenarioFormatError(f"states[{a}]: {exc}") from None
    prior = data.get("prior")
    if prior is None:
        prior = [1.0 / size] * size
    ensemble = CqEnsemble(_coerce(prior, _float_array, "prior"), states)
    out_dims = _coerce(data["output_dims"], lambda raw: tuple(map(_integer, raw)), "output_dims")
    if len(out_dims) != 2:
        raise ScenarioFormatError("output_dims: expected exactly two output dimensions")
    chan = data["channel"]
    if not isinstance(chan, dict):
        raise ScenarioFormatError("channel: expected an object with 'builtin' or 'kraus'")
    if "builtin" in chan:
        if chan["builtin"] != "identity":
            raise ScenarioFormatError(f"channel.builtin: unknown builtin {chan['builtin']!r}")
        # The factors are checked before np.eye sees their product.
        theta = identity_channel(math.prod(factor_dims(out_dims)), out_dims)
    elif "kraus" in chan:
        if not isinstance(chan["kraus"], list):
            raise ScenarioFormatError("channel.kraus: expected a list of matrices")
        ops = [
            _complex_matrix(k, f"channel.kraus[{i}]") for i, k in enumerate(chan["kraus"])
        ]
        theta = QuantumChannel(ops, out_dims)
    else:
        raise ScenarioFormatError("channel: needs either 'builtin' or 'kraus'")
    classical_pair = None
    if data.get("classical_pair") is not None:
        cp = data["classical_pair"]
        if not isinstance(cp, dict) or not {"v", "w"} <= cp.keys():
            raise ScenarioFormatError("classical_pair: expected an object with 'v' and 'w'")
        classical_pair = tuple(
            ClassicalChannel(_coerce(cp[key], _float_array, f"classical_pair.{key}"))
            for key in ("v", "w")
        )
    return Scenario(
        name=name,
        key_count=key_count,
        ensemble=ensemble,
        theta=theta,
        classical_pair=classical_pair,
    )


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioFormatError(f"no such scenario file or builtin: {path!r}")
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path!r}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ScenarioFormatError("top level: expected a JSON object")
    return scenario_from_dict(data)


def _pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _state_amplitudes(rho: np.ndarray) -> np.ndarray:
    vals, vecs = hermitian_eigensystem(rho)
    if vals[0] < 1.0 - 1e-9 or (len(vals) > 1 and vals[1] > 1e-9):
        raise ValidationError("pure-state", "scenario files can only serialize pure states")
    v = vecs[:, 0]
    # Fix the global phase for a canonical representation.
    idx = int(np.argmax(np.abs(v)))
    phase = v[idx] / abs(v[idx])
    return v / phase


def scenario_to_dict(s: Scenario) -> dict:
    states = {
        str(a): _pairs(_state_amplitudes(rho))
        for a, rho in enumerate(s.ensemble.states)
    }
    data = {
        "format": FORMAT_TAG,
        "name": s.name,
        "key_count": s.key_count,
        "alphabet_size": s.ensemble.size,
        "prior": [float(p) for p in s.ensemble.prior],
        "states": states,
        "channel": {"kraus": [[_pairs(row) for row in k] for k in s.theta.kraus]},
        "output_dims": list(s.theta.out_dims),
    }
    if s.classical_pair is not None:
        v, w = s.classical_pair
        data["classical_pair"] = {
            "v": [[float(x) for x in row] for row in v.matrix],
            "w": [[float(x) for x in row] for row in w.matrix],
        }
    return data


def write_atomic(path: str, text: str) -> None:
    """Write text to path atomically (temp file in the same directory, then rename).

    The temporary file is created under a fresh name with mode 0o666, so the
    kernel applies the umask and the file gets the mode a plain write would
    give it. The process-wide umask is neither read nor changed, so no other
    thread ever creates a file under a cleared one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_scenario(s: Scenario, path: str) -> None:
    """Write a scenario file atomically."""
    write_atomic(path, json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")
