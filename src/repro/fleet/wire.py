"""Length-prefixed fleet wire protocol: HELLO through FIT_ERROR.

The fleet speaks a tiny framed protocol over a plain TCP stream.  Every
frame is::

    !I payload_len | payload
    payload = !I header_len | header JSON | binary tail

The header is canonical JSON (sorted keys, compact separators — the
same byte-stability rule :mod:`repro.serving.protocol` enforces for the
HTTP wire), so encoding the same frame twice yields identical bytes.
The binary tail carries what JSON cannot: the pickled strategy and zoo
reference on the way out (FIT), and raw C-order numpy array bytes on
the way back (FIT_RESULT) — the *strategy-packed* artifact, exactly the
``(meta, arrays)`` pair the registry persists.  The registry's artifact
files are FIT_RESULT frames as well, so socket-fitted artifacts stay
byte-identical to thread- and process-fitted ones.

Frames and their direction:

========== ======================= ===================================
frame      direction               carries
========== ======================= ===================================
HELLO      worker -> coordinator   wire version, worker name, pid, nonce
CHALLENGE  coordinator -> worker   auth nonce + coordinator's HMAC proof
AUTH       worker -> coordinator   worker's HMAC proof of the challenge
REGISTER   coordinator -> worker   assigned worker id, heartbeat cadence
HEARTBEAT  worker -> coordinator   liveness + outstanding/fits_done
FIT        coordinator -> worker   fit id, target, pickled strategy+zoo ref
FIT_RESULT worker -> coordinator   meta JSON, span records, packed arrays
FIT_ERROR  worker -> coordinator   typed kind, exception module/type, message
========== ======================= ===================================

A frame that fails to parse (bad magic sizes, unknown type, missing
fields, field values of the wrong type) raises
:class:`~repro.fleet.errors.WireError`; both ends treat that as a dead
peer and drop the connection.  ``WIRE_VERSION`` is checked once at
HELLO — a version-skewed worker is refused before it can receive work.

Trust model: the gateway never evaluates bytes a worker sends — the
worker->coordinator frames are pure JSON headers plus raw numpy array
bytes (FIT_ERROR names the exception by module/type string; nothing is
unpickled).  Pickle travels only coordinator->worker inside FIT, which
is why the CHALLENGE/AUTH handshake is *mutual*: when a shared secret
is configured (``--fleet-secret`` / ``REPRO_FLEET_SECRET``) each side
proves knowledge of it with an HMAC over the other side's fresh nonce
(:func:`coordinator_proof` / :func:`worker_proof`,
``multiprocessing.connection``-style) before any FIT is exchanged.
Without a secret the listener must stay on a loopback/trusted
interface — anyone who can connect can join the fleet.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.errors import WireError

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "Hello",
    "Challenge",
    "Auth",
    "Register",
    "Heartbeat",
    "Fit",
    "FitResult",
    "FitError",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "new_nonce",
    "coordinator_proof",
    "worker_proof",
]

#: bumped on any frame-shape change; checked at HELLO
WIRE_VERSION = 2

#: hard frame-size ceiling — a corrupt length prefix must not make a
#: reader allocate gigabytes (tiny-zoo artifacts are a few MB)
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct("!I")


@dataclass(frozen=True)
class Hello:
    """Worker's opening frame: who it is and what protocol it speaks.

    ``nonce`` is the worker's fresh challenge material: a secured
    coordinator must echo ``coordinator_proof(secret, nonce)`` in its
    CHALLENGE, proving *it* knows the secret before the worker will
    accept (and later unpickle) FIT payloads from it.
    """

    worker_name: str
    pid: int
    wire_version: int = WIRE_VERSION
    nonce: str = ""


@dataclass(frozen=True)
class Challenge:
    """Coordinator's auth demand: prove knowledge of the fleet secret.

    ``proof`` is the coordinator's own HMAC over the HELLO nonce, so
    authentication is mutual — a worker never registers with (or takes
    pickled FIT payloads from) a coordinator that cannot produce it.
    """

    nonce: str
    proof: str


@dataclass(frozen=True)
class Auth:
    """Worker's answer to CHALLENGE: HMAC proof over the challenge nonce."""

    proof: str


@dataclass(frozen=True)
class Register:
    """Coordinator's acceptance: assigned id + heartbeat cadence."""

    worker_id: str
    heartbeat_interval_s: float


@dataclass(frozen=True)
class Heartbeat:
    """Periodic worker liveness with a load snapshot."""

    worker_id: str
    outstanding: int
    fits_done: int


@dataclass(frozen=True)
class Fit:
    """One dispatched cold fit (strategy and zoo ref travel pickled)."""

    fit_id: str
    target: str
    strategy_blob: bytes
    zoo_blob: bytes


@dataclass(frozen=True, eq=False)
class FitResult:
    """A finished fit: the strategy-packed artifact + span records.

    ``arrays`` preserves the worker's insertion order — the parent
    passes the dict to ``registry.save_packed`` as-is, so order must
    survive the wire for the stored artifact to match the thread path.
    """

    fit_id: str
    meta: dict
    spans: list
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class FitError:
    """A failed fit: ``kind`` separates plane failures from ordinary
    fit exceptions.

    The exception travels as ``(exc_module, exc_type, message)`` strings
    in the JSON header — never pickled, so a worker cannot make the
    gateway execute bytes.  The coordinator re-raises with the original
    type when it names an importable ``builtins``/``repro.*`` exception
    class, else degrades to a RuntimeError carrying the message.
    """

    fit_id: str
    kind: str  # "fit" (strategy raised) | "plane" (hydration/infra)
    message: str
    exc_module: str = ""
    exc_type: str = ""


_FRAME_NAMES = {
    Hello: "HELLO",
    Challenge: "CHALLENGE",
    Auth: "AUTH",
    Register: "REGISTER",
    Heartbeat: "HEARTBEAT",
    Fit: "FIT",
    FitResult: "FIT_RESULT",
    FitError: "FIT_ERROR",
}


# ---------------------------------------------------------------------- #
# fleet-secret authentication (multiprocessing.connection-style HMAC)
# ---------------------------------------------------------------------- #
def new_nonce() -> str:
    """Fresh per-connection challenge material (hex, 256 bits)."""
    return os.urandom(32).hex()


def _proof(secret, role: bytes, nonce: str) -> str:
    key = secret.encode("utf-8") if isinstance(secret, str) else bytes(secret)
    return hmac.new(key, role + nonce.encode("ascii"), hashlib.sha256).hexdigest()


def coordinator_proof(secret, worker_nonce: str) -> str:
    """The coordinator's HMAC over the worker's HELLO nonce.

    Domain-separated from :func:`worker_proof` so a proof captured in
    one direction can never be replayed in the other.
    """
    return _proof(secret, b"repro-fleet-coordinator:", worker_nonce)


def worker_proof(secret, challenge_nonce: str) -> str:
    """The worker's HMAC over the coordinator's CHALLENGE nonce."""
    return _proof(secret, b"repro-fleet-worker:", challenge_nonce)


def _header_bytes(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_frame(frame) -> bytes:
    """One frame as its full on-wire byte string (byte-stable)."""
    name = _FRAME_NAMES.get(type(frame))
    if name is None:
        raise WireError(f"not a fleet frame: {type(frame).__name__}")
    blobs: list[bytes] = []
    if isinstance(frame, Hello):
        header = {
            "frame": name,
            "worker_name": frame.worker_name,
            "pid": int(frame.pid),
            "wire_version": int(frame.wire_version),
            "nonce": frame.nonce,
        }
    elif isinstance(frame, Challenge):
        header = {"frame": name, "nonce": frame.nonce, "proof": frame.proof}
    elif isinstance(frame, Auth):
        header = {"frame": name, "proof": frame.proof}
    elif isinstance(frame, Register):
        header = {
            "frame": name,
            "worker_id": frame.worker_id,
            "heartbeat_interval_s": float(frame.heartbeat_interval_s),
        }
    elif isinstance(frame, Heartbeat):
        header = {
            "frame": name,
            "worker_id": frame.worker_id,
            "outstanding": int(frame.outstanding),
            "fits_done": int(frame.fits_done),
        }
    elif isinstance(frame, Fit):
        blobs = [frame.strategy_blob, frame.zoo_blob]
        header = {
            "frame": name,
            "fit_id": frame.fit_id,
            "target": frame.target,
            "blobs": [len(b) for b in blobs],
        }
    elif isinstance(frame, FitResult):
        descriptors = []
        for key, array in frame.arrays.items():
            # ascontiguousarray promotes 0-d to 1-d, so the descriptor
            # shape must come from the original array
            data = np.ascontiguousarray(array)
            blobs.append(data.tobytes())
            descriptors.append(
                {
                    "name": str(key),
                    "dtype": data.dtype.str,
                    "shape": list(array.shape),
                    "nbytes": len(blobs[-1]),
                }
            )
        header = {
            "frame": name,
            "fit_id": frame.fit_id,
            "meta": frame.meta,
            "spans": frame.spans,
            "arrays": descriptors,
        }
    else:  # FitError
        header = {
            "frame": name,
            "fit_id": frame.fit_id,
            "kind": frame.kind,
            "message": frame.message,
            "exc_module": frame.exc_module,
            "exc_type": frame.exc_type,
        }
    try:
        head = _header_bytes(header)
    except (TypeError, ValueError) as exc:
        raise WireError(f"{name} header is not JSON-encodable: {exc}") from exc
    payload = b"".join([_LEN.pack(len(head)), head, *blobs])
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"{name} frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return _LEN.pack(len(payload)) + payload


def _require(header: dict, name: str, *fields: str) -> list:
    try:
        return [header[f] for f in fields]
    except KeyError as exc:
        raise WireError(f"{name} frame is missing field {exc.args[0]!r}") from None


def _split_blobs(tail: bytes, lengths: list, name: str) -> list[bytes]:
    if not all(isinstance(n, int) and n >= 0 for n in lengths):
        raise WireError(f"{name} frame declares invalid blob lengths {lengths!r}")
    if sum(lengths) != len(tail):
        raise WireError(
            f"{name} frame declares {sum(lengths)} blob bytes "
            f"but carries {len(tail)}"
        )
    blobs, offset = [], 0
    for length in lengths:
        blobs.append(tail[offset : offset + length])
        offset += length
    return blobs


def decode_frame(payload: bytes):
    """Parse one frame payload (everything after the outer length).

    Any malformed payload, including a well-framed header whose field
    values have the wrong JSON type, raises :class:`WireError`.
    """
    try:
        return _decode(payload)
    except (TypeError, ValueError, OverflowError, RecursionError, SyntaxError) as exc:
        # SyntaxError: np.dtype parses comma-separated dtype strings with ast
        raise WireError(f"malformed fleet frame: {exc}") from exc


def _decode(payload: bytes):
    if len(payload) < _LEN.size:
        raise WireError(f"truncated frame payload ({len(payload)} bytes)")
    (header_len,) = _LEN.unpack_from(payload)
    if header_len > len(payload) - _LEN.size:
        raise WireError(
            f"frame declares a {header_len}-byte header but only "
            f"{len(payload) - _LEN.size} payload bytes follow"
        )
    header = json.loads(payload[_LEN.size : _LEN.size + header_len])
    if not isinstance(header, dict):
        raise WireError("frame header must be a JSON object")
    tail = payload[_LEN.size + header_len :]
    name = header.get("frame")

    if name == "HELLO":
        worker_name, pid, version = _require(
            header, name, "worker_name", "pid", "wire_version"
        )
        return Hello(
            worker_name=str(worker_name),
            pid=int(pid),
            wire_version=int(version),
            nonce=str(header.get("nonce", "")),
        )
    if name == "CHALLENGE":
        nonce, proof = _require(header, name, "nonce", "proof")
        return Challenge(nonce=str(nonce), proof=str(proof))
    if name == "AUTH":
        (proof,) = _require(header, name, "proof")
        return Auth(proof=str(proof))
    if name == "REGISTER":
        worker_id, interval = _require(
            header, name, "worker_id", "heartbeat_interval_s"
        )
        return Register(worker_id=str(worker_id), heartbeat_interval_s=float(interval))
    if name == "HEARTBEAT":
        worker_id, outstanding, fits_done = _require(
            header, name, "worker_id", "outstanding", "fits_done"
        )
        return Heartbeat(
            worker_id=str(worker_id),
            outstanding=int(outstanding),
            fits_done=int(fits_done),
        )
    if name == "FIT":
        fit_id, target, lengths = _require(header, name, "fit_id", "target", "blobs")
        if len(lengths) != 2:
            raise WireError(f"FIT frame needs 2 blobs, got {len(lengths)}")
        strategy_blob, zoo_blob = _split_blobs(tail, lengths, name)
        return Fit(
            fit_id=str(fit_id),
            target=str(target),
            strategy_blob=strategy_blob,
            zoo_blob=zoo_blob,
        )
    if name == "FIT_RESULT":
        fit_id, meta, spans, descriptors = _require(
            header, name, "fit_id", "meta", "spans", "arrays"
        )
        if not isinstance(meta, dict) or not isinstance(spans, list):
            raise WireError("FIT_RESULT meta/spans have the wrong JSON shape")
        lengths = [
            d.get("nbytes") if isinstance(d, dict) else None for d in descriptors
        ]
        raws = _split_blobs(tail, lengths, name)
        arrays: dict[str, np.ndarray] = {}
        for descriptor, raw in zip(descriptors, raws):
            key, dtype, shape = _require(descriptor, name, "name", "dtype", "shape")
            # .copy(): frombuffer views are read-only; the parent
            # must receive arrays as writable as pickle would make
            arrays[str(key)] = (
                np.frombuffer(raw, dtype=np.dtype(dtype))
                .reshape([int(n) for n in shape])
                .copy()
            )
        return FitResult(fit_id=str(fit_id), meta=meta, spans=spans, arrays=arrays)
    if name == "FIT_ERROR":
        fit_id, kind, message = _require(header, name, "fit_id", "kind", "message")
        if tail:
            raise WireError(
                f"FIT_ERROR frame carries {len(tail)} unexpected blob bytes"
            )
        return FitError(
            fit_id=str(fit_id),
            kind=str(kind),
            message=str(message),
            exc_module=str(header.get("exc_module", "")),
            exc_type=str(header.get("exc_type", "")),
        )
    raise WireError(f"unknown fleet frame {name!r}")


async def read_frame(reader):
    """Read one frame from an asyncio stream reader.

    Raises :class:`asyncio.IncompleteReadError` on a clean peer close
    (callers treat it as disconnect) and :class:`WireError` on a frame
    that cannot be parsed.
    """
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"incoming frame declares {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    return decode_frame(await reader.readexactly(length))


async def write_frame(writer, frame) -> None:
    """Write one frame to an asyncio stream writer and drain."""
    writer.write(encode_frame(frame))
    await writer.drain()
