"""Envelope payload codecs for the distributed runtime.

Builds the role-specific handshake spec a coordinator ships to each
worker, and converts :class:`~repro.stream.executors.StreamItem`
traffic to/from ``task`` / ``result`` / ``error`` envelopes.  Tensor
payloads are exactly the :mod:`repro.crypto.serialize` frames (scalar
or lane-packed); keys cross the wire as the same module's JSON forms.

Privacy separation (paper Eq. 6) holds on the wire: the spec sent to a
*model*-role worker carries scaled affines and the public key but never
the private key; the spec sent to a *data*-role worker carries the
private key and activation specs but never a model parameter.
"""

from __future__ import annotations

import base64
import dataclasses

import numpy as np

from ..config import RuntimeConfig
from ..crypto.sparse import SparseMatvecPlan
from ..crypto.serialize import (
    any_tensor_from_bytes,
    any_tensor_to_bytes,
    private_key_to_json,
    public_key_to_json,
)
from ..errors import (
    ConfigurationError,
    CryptoError,
    HandshakeError,
    PoisonedRequestError,
    TransientStageError,
    TransportError,
)
from ..nn.layers import LayerKind
from ..protocol.stages import LinearStagePlan
from ..scaling.fixed_point import ScaledAffine
from ..scaling.headroom import FoldGeometry
from ..stream.executors import StreamItem
from .transport import (
    KIND_ANNOUNCE,
    KIND_ERROR,
    KIND_JOIN,
    KIND_LEAVE,
    KIND_RESULT,
    KIND_TASK,
    VERSION,
    Envelope,
)

#: Worker roles (mirror :class:`repro.planner.plan.ServerSpec.role`).
ROLE_MODEL = "model"
ROLE_DATA = "data"


def _b64(array: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(array).tobytes()
                            ).decode("ascii")


def _unb64(text: str, dtype: str, shape) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
        array = np.frombuffer(raw, dtype=dtype).reshape(tuple(shape))
    except (ValueError, TypeError) as exc:
        raise TransportError(f"malformed array field: {exc}") from exc
    return array.copy()


def affine_to_wire(affine: ScaledAffine) -> dict:
    return {
        "weight": _b64(affine.weight.astype(np.int64)),
        "weight_shape": list(affine.weight.shape),
        "raw_bias": _b64(np.asarray(affine.raw_bias, dtype=np.float64)),
        "bias_shape": list(np.asarray(affine.raw_bias).shape),
        "decimals": affine.decimals,
        "input_shape": list(affine.input_shape),
        "output_shape": list(affine.output_shape),
    }


def affine_from_wire(state: dict) -> ScaledAffine:
    try:
        return ScaledAffine(
            weight=_unb64(state["weight"], "int64",
                          state["weight_shape"]),
            raw_bias=_unb64(state["raw_bias"], "float64",
                            state["bias_shape"]),
            decimals=int(state["decimals"]),
            input_shape=tuple(state["input_shape"]),
            output_shape=tuple(state["output_shape"]),
        )
    except KeyError as exc:
        raise TransportError(f"affine record missing {exc}") from exc


def plan_to_wire(plan: SparseMatvecPlan) -> dict:
    """JSON-safe form of one layer's sparse matvec plan.

    Weights are scaled int64 values and row sums stay within Python
    int range, so everything rides as plain JSON integers; the nested
    column structure mirrors :class:`~repro.crypto.sparse.PlanColumn`
    exactly (column index, then ``(weight, rows)`` groups in the
    plan's canonical ascending-weight order, so the wire form is as
    deterministic as the plan identity it encodes).
    """
    return {
        "in_dim": plan.in_dim,
        "out_dim": plan.out_dim,
        "columns": [
            [i, [[w, list(rows)] for w, rows in groups]]
            for i, groups in plan.columns
        ],
        "row_weight_sums": list(plan.row_weight_sums),
    }


def plan_from_wire(state: dict) -> SparseMatvecPlan:
    """Rebuild a sparse matvec plan from its wire form.

    The plan constructor re-validates the full structure (dimension
    bounds, row/column ranges, no zero weights), so a malformed or
    tampered handshake section fails here as a
    :class:`~repro.errors.TransportError` instead of poisoning a
    session's linear kernels.
    """
    try:
        columns = tuple(
            (int(i), tuple((int(w), tuple(int(r) for r in rows))
                           for w, rows in groups))
            for i, groups in state["columns"]
        )
        return SparseMatvecPlan(
            int(state["in_dim"]),
            int(state["out_dim"]),
            columns,
            [int(s) for s in state["row_weight_sums"]],
        )
    except (CryptoError, KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed matvec plan: {exc}") from exc


def linear_plan_from_wire(stage_index: int,
                          section: dict) -> LinearStagePlan:
    """Rebuild a linear stage's affines and compiled plans from its
    section of a model-role handshake spec.

    Raises:
        TransportError: a record is missing or malformed, or
            ``matvec_plans`` does not hold one plan per affine.
    """
    try:
        affines = [affine_from_wire(a) for a in section["affines"]]
    except (KeyError, TypeError) as exc:
        raise TransportError(f"malformed affines: {exc!r}") from exc
    plans = section.get("matvec_plans")
    if not isinstance(plans, list) or len(plans) != len(affines) \
            or None in plans:
        raise TransportError(
            f"stage {stage_index}: matvec_plans must hold one plan per "
            f"affine ({len(affines)})"
        )
    return LinearStagePlan(stage_index, affines,
                           [plan_from_wire(p) for p in plans])


def fold_to_wire(fold: FoldGeometry) -> dict:
    """JSON-safe form of the session's output-fold geometry."""
    return dataclasses.asdict(fold)


def fold_from_wire(state: dict) -> FoldGeometry:
    """Rebuild the fold geometry a model-role spec carries."""
    try:
        fold = FoldGeometry(lanes=int(state["lanes"]),
                            mag_bits=int(state["mag_bits"]),
                            guard_bits=int(state["guard_bits"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed fold geometry: {exc}") from exc
    if fold.lanes < 1 or fold.mag_bits < 1 or fold.guard_bits < 0:
        raise TransportError(f"invalid fold geometry {fold}")
    return fold


def config_to_wire(config: RuntimeConfig) -> dict:
    return dataclasses.asdict(config)


#: The JSON values each :class:`RuntimeConfig` field type may arrive
#: as (tuples cross the wire as arrays; a whole float may be an int).
_CONFIG_WIRE_TYPES = {
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "tuple": (list, tuple),
}


def config_from_wire(state: dict) -> RuntimeConfig:
    """Rebuild the config record of a handshake spec.

    Raises:
        HandshakeError: the record is not an object, names a field
            :class:`RuntimeConfig` does not have, carries a value of
            the wrong JSON type, or fails the config's validation.
    """
    if not isinstance(state, dict):
        raise HandshakeError(
            f"bad config record: expected an object, got "
            f"{type(state).__name__}"
        )
    types = {field.name: field.type
             for field in dataclasses.fields(RuntimeConfig)}
    for name, value in state.items():
        if name not in types:
            raise HandshakeError(f"bad config record: unknown field {name!r}")
        kinds = _CONFIG_WIRE_TYPES[types[name]]
        if not isinstance(value, kinds) \
                or (isinstance(value, bool) and bool not in kinds):
            raise HandshakeError(
                f"bad config record: {name} must be {types[name]}, got "
                f"{type(value).__name__}"
            )
    try:
        return RuntimeConfig(**state)
    except ConfigurationError as exc:
        raise HandshakeError(f"bad config record: {exc}") from exc


def build_worker_spec(model_provider, data_provider, plan,
                      role: str, tenant: str = "default") -> dict:
    """The handshake spec for one worker of the given role (the model
    provider must hold the public key).

    Contains everything a fresh process needs to rebuild its stage
    executors: the runtime config, stage geometry, and the role's
    state (affines, matvec plans, output-fold geometry and the public
    key for model workers; private key, activation specs and value
    decimals for data workers — a folded tensor's frame carries its
    own lane geometry).

    ``tenant`` names the isolated session the worker should serve this
    connection under: one worker process hosts many tenants' stage
    state side by side (each with its own keypair), which is how the
    serving gateway multiplexes tenants onto one shared fleet.  The
    worker pins each tenant to a digest of its first handshake spec:
    a re-handshake under a different modulus is refused (tenant
    isolation), while one with the same keypair but a changed config
    or stage geometry rebuilds the tenant's session so stale
    executors never serve a reconfigured coordinator.
    """
    if role not in (ROLE_MODEL, ROLE_DATA):
        raise TransportError(f"unknown worker role {role!r}")
    stages = {}
    for stage in plan.stages:
        kind = ("linear" if stage.kind is LayerKind.LINEAR
                else "nonlinear")
        entry = {
            "kind": kind,
            "threads": plan.threads_for(stage.index),
        }
        if role == ROLE_MODEL and kind == "linear":
            stage_plan = model_provider.linear_stage(stage.index).plan
            entry["affines"] = [
                affine_to_wire(affine)
                for affine in stage_plan.affines
            ]
            # Every layer ships its plan's column index; the worker
            # recompiles the same schedules.  A plan change (re-pruned
            # / re-clustered tenant model) changes the spec digest,
            # which forces the worker's pinned session to rebuild
            # instead of serving stale structure.
            entry["matvec_plans"] = [
                plan_to_wire(plan) for plan in stage_plan.matvec_plans
            ]
        if role == ROLE_DATA and kind == "nonlinear":
            entry["activations"] = \
                model_provider.nonlinear_activations(stage.index)
        stages[str(stage.index)] = entry
    spec = {
        "version": VERSION,
        "role": role,
        "tenant": tenant,
        "num_stages": len(plan.stages),
        "config": config_to_wire(model_provider.config),
        "public_key": public_key_to_json(data_provider.public_key),
        "stages": stages,
    }
    if role == ROLE_MODEL:
        spec["decimals"] = model_provider.decimals
        # The fold geometry rides the spec like the matvec plans: a
        # changed geometry changes the digest and rebuilds the session.
        spec["fold"] = fold_to_wire(model_provider.fold)
    else:
        spec["value_decimals"] = data_provider.value_decimals
        spec["private_key"] = private_key_to_json(
            data_provider.private_key
        )
    return spec


# -- stream item traffic ------------------------------------------------


def task_envelope(item: StreamItem, stage_index: int) -> Envelope:
    """Wrap a stream item as a stage-task envelope."""
    if item.tensor is None:
        raise TransportError(
            f"request {item.request_id} has no tensor to ship"
        )
    return Envelope(
        KIND_TASK,
        header={
            "request_id": item.request_id,
            "stage_index": stage_index,
            "obfuscation_round": item.obfuscation_round,
            "trace_id": item.trace_id,
            "trace_parent": item.trace_parent,
        },
        payload=any_tensor_to_bytes(item.tensor),
    )


def item_from_task(envelope: Envelope, public_key) -> StreamItem:
    """Rebuild the worker-side stream item from a task envelope."""
    header = envelope.header
    try:
        return StreamItem(
            request_id=int(header["request_id"]),
            tensor=any_tensor_from_bytes(envelope.payload, public_key),
            obfuscation_round=(
                None if header.get("obfuscation_round") is None
                else int(header["obfuscation_round"])
            ),
            trace_id=header.get("trace_id"),
            trace_parent=header.get("trace_parent"),
        )
    except KeyError as exc:
        raise TransportError(f"task envelope missing {exc}") from exc


def result_envelope(item: StreamItem) -> Envelope:
    """Wrap a processed item as a stage-result envelope.

    Final stages produce a float64 probability vector — shipped as raw
    little-endian bytes so the coordinator's copy is bit-identical to
    the in-process pipeline's.  Non-final stages ship the output tensor
    frame plus the outbound obfuscation round.
    """
    if item.result is not None:
        result = np.ascontiguousarray(np.asarray(item.result,
                                                 dtype=np.float64))
        return Envelope(
            KIND_RESULT,
            header={
                "request_id": item.request_id,
                "has_result": True,
                "result_shape": list(result.shape),
            },
            payload=result.tobytes(),
        )
    if item.tensor is None:
        raise TransportError(
            f"request {item.request_id} finished with neither a tensor "
            "nor a result"
        )
    return Envelope(
        KIND_RESULT,
        header={
            "request_id": item.request_id,
            "has_result": False,
            "obfuscation_round": item.obfuscation_round,
        },
        payload=any_tensor_to_bytes(item.tensor),
    )


def apply_result(envelope: Envelope, item: StreamItem,
                 public_key) -> StreamItem:
    """Fold a stage-result envelope back into the coordinator's item."""
    header = envelope.header
    got = header.get("request_id")
    if got != item.request_id:
        raise TransportError(
            f"result for request {got} arrived while request "
            f"{item.request_id} was in flight"
        )
    if header.get("has_result"):
        try:
            shape = tuple(int(d) for d in header["result_shape"])
            result = np.frombuffer(envelope.payload,
                                   dtype=np.float64).reshape(shape)
        except (KeyError, ValueError, TypeError) as exc:
            raise TransportError(
                f"malformed result envelope: {exc}"
            ) from exc
        item.result = result.copy()
        item.tensor = None
        item.obfuscation_round = None
        return item
    item.tensor = any_tensor_from_bytes(envelope.payload, public_key)
    item.obfuscation_round = (
        None if header.get("obfuscation_round") is None
        else int(header["obfuscation_round"])
    )
    return item


#: Error classifications carried on ``error`` envelopes.
CLASS_TRANSIENT = "transient"
CLASS_PERMANENT = "permanent"
CLASS_UNCLASSIFIED = "unclassified"


def error_envelope(request_id: int, classification: str,
                   message: str) -> Envelope:
    return Envelope(KIND_ERROR, header={
        "request_id": request_id,
        "classification": classification,
        "message": message,
    })


def raise_remote_error(envelope: Envelope) -> None:
    """Re-raise a worker-reported stage failure with its class intact.

    Transient failures become :class:`TransientStageError` (retried),
    permanent ones :class:`PoisonedRequestError` (dead-lettered), and
    unclassified ones a plain ``RuntimeError`` so the coordinator's
    retry policy applies its own ``retry_unclassified`` default —
    matching what would have happened had the executor raised locally.
    """
    header = envelope.header
    classification = header.get("classification", CLASS_UNCLASSIFIED)
    message = (f"remote stage failure: "
               f"{header.get('message', 'unknown error')}")
    if classification == CLASS_TRANSIENT:
        raise TransientStageError(message)
    if classification == CLASS_PERMANENT:
        raise PoisonedRequestError(message)
    raise RuntimeError(message)


# -- membership traffic (docs/ELASTIC.md) -------------------------------
#
# Spoken worker -> coordinator against the coordinator's membership
# listener, not against a worker's task port.  ``join`` advertises the
# worker's own listen address (the coordinator dials *back* with the
# normal hello handshake); ``announce`` is the coordinator's reply for
# both joins and leaves, carrying the new membership epoch.

#: Deadline in seconds for one join/leave/announce round trip, on the
#: worker that dials and on the listener that reads the request.
JOIN_TIMEOUT = 10.0


def join_envelope(host: str, port: int, role: str,
                  cores: int) -> Envelope:
    """A worker's request to join a running fleet."""
    if role not in (ROLE_MODEL, ROLE_DATA):
        raise TransportError(f"unknown worker role {role!r}")
    return Envelope(KIND_JOIN, header={
        "version": VERSION,
        "host": str(host),
        "port": int(port),
        "role": role,
        "cores": int(cores),
    })


def join_from_envelope(envelope: Envelope) -> tuple:
    """``(host, port, role, cores)`` from a join envelope, validated."""
    header = envelope.header
    try:
        host = str(header["host"])
        port = int(header["port"])
        role = header["role"]
        cores = int(header["cores"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed join envelope: {exc}") from exc
    if header.get("version") != VERSION:
        raise TransportError(
            f"join speaks protocol version {header.get('version')} "
            f"(speaking {VERSION})"
        )
    if role not in (ROLE_MODEL, ROLE_DATA):
        raise TransportError(f"unknown worker role {role!r}")
    if not 0 < port < 65536:
        raise TransportError(f"join advertises invalid port {port}")
    if cores < 1:
        raise TransportError(f"join advertises {cores} cores")
    return host, port, role, cores


def leave_envelope(server_id: int) -> Envelope:
    """A request to drain one member out of the fleet."""
    return Envelope(KIND_LEAVE, header={
        "version": VERSION,
        "server_id": int(server_id),
    })


def leave_from_envelope(envelope: Envelope) -> int:
    try:
        return int(envelope.header["server_id"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed leave envelope: {exc}") from exc


def announce_envelope(epoch: int, server_id: int, role: str,
                      status: str) -> Envelope:
    """The coordinator's membership reply (join ack / leave ack)."""
    return Envelope(KIND_ANNOUNCE, header={
        "epoch": int(epoch),
        "server_id": int(server_id),
        "role": role,
        "status": status,
    })


def announce_from_envelope(envelope: Envelope) -> dict:
    header = envelope.header
    try:
        return {
            "epoch": int(header["epoch"]),
            "server_id": int(header["server_id"]),
            "role": str(header["role"]),
            "status": str(header["status"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportError(
            f"malformed announce envelope: {exc}"
        ) from exc
