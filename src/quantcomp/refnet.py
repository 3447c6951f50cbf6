"""Floating-point reference networks: layer kernels, bundle serialization, synthetic training.

A model lives on disk as a directory with a ``manifest.json`` and one blob
file, ``tensors.bin``, of every array's raw little-endian bytes at the offset
its ``tensors`` entry gives.  In memory it is a :class:`ModelBundle`
(manifest dict + blob dict) whose float layers are parsed once, on first use.

It also owns the record mechanism of the layers, quantization, compensation and
fusion sections: each section's owner declares its records once, as tuples of
:class:`RecordKey` (here ``LAYER_RECORDS``), which ``write_record`` and ``read_record`` follow.
"""

from __future__ import annotations

import json
import math
import shutil
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from functools import cached_property
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2
BLOB_FILE = "tensors.bin"

KIND_TO_DTYPE = {
    "bool": np.dtype("?"),
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "u8": np.dtype("u1"),
    "u16": np.dtype("<u2"),
    "u32": np.dtype("<u4"),
    "i32": np.dtype("<i4"),
    "i64": np.dtype("<i8"),
}
DTYPE_TO_KIND = {v: k for k, v in KIND_TO_DTYPE.items()}

PARAM_OPS = ("linear", "conv2d")
# the manifest sections the pipeline adds, in order; each is built from the ones before it
PIPELINE_SECTIONS = ("quantization", "compensation", "fusion")


class BundleError(Exception):
    """Raised when a bundle violates its format contract."""


class ShapeError(Exception):
    """Shape/geometry mismatch; carries the offending layer index when known."""

    def __init__(self, message, layer_index=None):
        if layer_index is not None:
            message = f"layer {layer_index}: {message}"
        super().__init__(message)
        self.layer_index = layer_index


class TrainError(Exception):
    """Trainer failed to reach the accuracy floor; carries the final accuracy."""

    def __init__(self, message, accuracy):
        super().__init__(message)
        self.accuracy = accuracy


@dataclass
class LayerSpec:
    """One network layer. Weight layout is (C_out, C_in) or (C_out, C_in, k, k)."""

    op_kind: str
    in_channels: int = 0
    out_channels: int = 0
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    kernel: int = 0
    stride: int = 1
    pad: int = 0

    def validate(self, index=None):
        if self.op_kind not in LAYER_RECORDS:
            raise ShapeError(f"unknown op_kind {self.op_kind!r}", index)
        if self.op_kind in PARAM_OPS and min(self.in_channels, self.out_channels) < 1:
            raise ShapeError(f"{self.op_kind} has {self.in_channels} input and {self.out_channels} output channels", index)
        if self.op_kind == "linear":
            if self.weight is None or self.weight.shape != (self.out_channels, self.in_channels):
                raise ShapeError("linear weight shape inconsistent with channel counts", index)
        elif self.op_kind == "conv2d":
            want = (self.out_channels, self.in_channels, self.kernel, self.kernel)
            if self.weight is None or self.weight.shape != want:
                raise ShapeError(f"conv2d weight shape {want} expected", index)
            if self.kernel < 1 or self.stride < 1 or self.pad < 0:
                raise ShapeError("bad conv2d geometry", index)
        elif self.op_kind == "avgpool":
            if self.kernel < 1 or self.stride < 1:
                raise ShapeError("avgpool kernel and stride must be >= 1", index)
            if self.pad != 0:
                raise ShapeError(f"avgpool does not pad, got pad {self.pad}", index)
        if self.weight is not None and self.bias is not None:
            if self.bias.shape != (self.out_channels,):
                raise ShapeError("bias length must equal out_channels", index)


@dataclass
class ModelBundle:
    """Manifest + blobs; the single on-disk/in-memory model representation.

    ``layers`` parses the ``layers`` section once and keeps the result: the
    section is fixed once a bundle is built, as no code writes it afterwards
    and ``derive`` never replaces it (it is not in ``PIPELINE_SECTIONS``).
    Every caller gets the same ``LayerSpec`` objects, and none modifies them.
    """

    manifest: dict
    blobs: dict[str, np.ndarray] = field(default_factory=dict)

    def tensor(self, name):
        if name not in self.blobs:
            raise BundleError(f"manifest references missing blob {name!r}")
        return self.blobs[name]

    @cached_property
    def layers(self):
        """The float layers as ``LayerSpec``s (an unlisted kind reads bare, for ``validate`` to reject)."""
        specs = []
        for i, entry in enumerate(self.manifest["layers"]):
            kind = LAYER_KIND.read(f"layer {i}:", entry, self)
            specs.append(LayerSpec(kind, **read_record(LAYER_RECORDS.get(kind, ()), f"layer {i}:", entry, self)))
        return specs

    @property
    def stage(self):
        """The last pipeline step the bundle went through: float, quantized or fused."""
        return "fused" if "fusion" in self.manifest else "quantized" if "quantization" in self.manifest else "float"

    def derive(self, key, section, blobs):
        """A new bundle: this one with pipeline section ``key`` set to ``section`` and the given ``blobs``.

        Every section after ``key`` in ``PIPELINE_SECTIONS`` was built from
        what ``key`` replaces, so it is dropped, and so is every blob that a
        replaced or dropped section named and no remaining section names.
        Only the top-level manifest and its ``tensors`` dict are copied; the
        kept sections are shared with this bundle.
        """
        later = PIPELINE_SECTIONS[PIPELINE_SECTIONS.index(key) + 1 :]
        manifest = {k: v for k, v in self.manifest.items() if k not in later}
        manifest[key] = section
        manifest["tensors"] = tensors = dict(self.manifest["tensors"])
        tensors.update((name, _tensor_entry(arr)) for name, arr in blobs.items())
        kept = {**self.blobs, **blobs}
        stale = _strings([self.manifest.get(k) for k in (key, *later)])
        if stale:  # a pipeline run replaces nothing, so it skips this walk of the whole manifest
            for name in stale - _strings([v for k, v in manifest.items() if k != "tensors"]):
                tensors.pop(name, None)
                kept.pop(name, None)
        return ModelBundle(manifest, kept)

    def param_layer_indices(self):
        return [i for i, layer in enumerate(self.layers) if layer.op_kind in PARAM_OPS]


# ---------------------------------------------------------------------------
# forward kernels


_GELU_C = np.sqrt(2.0 / np.pi)  # an np.float64, so gelu's tanh and all after it run in f64


def _gelu_arg(x):
    """``x + 0.044715 x^3`` in x's dtype, the cube as two rounded multiplies.

    numpy's f32 ``x**3`` takes a CPU-dependent SIMD ``pow`` that is not
    correctly rounded everywhere; ``(x * x) * x`` gives the same bits on
    every IEEE machine, at a fraction of the cost of the general ``pow``.
    """
    return x + 0.044715 * ((x * x) * x)


def gelu(x):
    """tanh-approximation gelu, ``0.5 x (1 + tanh(c (x + 0.044715 x^3)))``; the toolkit's only gelu definition.

    The cube and the sum run in x's dtype (``_gelu_arg``: two IEEE multiplies,
    so an f32 input gives the same bits on every machine); c is an f64
    scalar, so the rest runs in one f64 buffer and the result is f64.
    ``x`` is never written to.
    """
    x = np.asarray(x)
    y = np.asarray(_GELU_C * _gelu_arg(x))
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5 * x
    return y


def gelu_grad(x):
    t = np.tanh(_GELU_C * _gelu_arg(x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def window_positions(h, w, kernel, stride, pad):
    """(H_out, W_out) of a kernel sliding over an H x W map; ``ShapeError`` if it has no position."""
    h_out = (h + 2 * pad - kernel) // stride + 1
    w_out = (w + 2 * pad - kernel) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv geometry leaves no output positions on a {h}x{w} input")
    return h_out, w_out


def window_sums(x_hwc, kernel, stride, dtype):
    """(N, H_out, W_out, C) sums of the unpadded k x k windows of an (N, H, W, C) array, in ``dtype``.

    Each sum starts from zero and adds its window's k*k strided slices in
    (di, dj) row-major order: the one summation order of the float and the
    integer avgpool.
    """
    n, h, w, c = x_hwc.shape
    h_out, w_out = window_positions(h, w, kernel, stride, 0)
    h_span, w_span = stride * (h_out - 1) + 1, stride * (w_out - 1) + 1
    sums = np.zeros((n, h_out, w_out, c), dtype)
    for di in range(kernel):
        for dj in range(kernel):
            sums += x_hwc[:, di : di + h_span : stride, dj : dj + w_span : stride]
    return sums


def im2col(x_hwc, kernel, stride, pad, pad_value=0.0):
    """(N, H, W, C) input -> (N, P, k*k*C) patch matrix, P = H_out*W_out; returns (cols, H_out, W_out).

    Each row orders its columns (k, k, C), as ``weight_matrix`` orders a conv
    weight's: channels last, so a patch row is k runs of k*C adjacent values.
    The input is padded into a copy, and its stride-sliced window view is
    copied once in C order, a forced copy: ``ascontiguousarray`` would return
    the read-only view itself at kernel 1, stride 1, pad 0.  The fresh,
    writeable, C-contiguous matrix has the input's dtype, so the integer path
    patches its u8/u16 codes, padded with the zero-point ``pad_value``.
    """
    n, h, w, c = x_hwc.shape
    h_out, w_out = window_positions(h, w, kernel, stride, pad)
    xp = np.full((n, h + 2 * pad, w + 2 * pad, c), pad_value, dtype=x_hwc.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x_hwc
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    return windows.transpose(0, 1, 2, 4, 5, 3).copy().reshape(n, h_out * w_out, kernel * kernel * c), h_out, w_out


def weight_matrix(weight):
    """A linear or conv2d weight as its (C_out, C_eff) GEMM operand.

    A (C_out, C_in) weight is that matrix already; a (C_out, C_in, k, k) one
    has its columns permuted to ``im2col``'s (k, k, C_in) order.
    """
    if weight.ndim == 4:
        weight = weight.transpose(0, 2, 3, 1)
    return weight.reshape(weight.shape[0], -1)


def layer_forward(layer: LayerSpec, x, index=None):
    """Run one layer on f32 input.

    conv2d takes (k, k, C) patches of the channels-last view of its NCHW input
    (``im2col`` pads it into a copy, so the view costs no copy of its own) and
    multiplies them by ``weight_matrix`` of its weight, the integer engine's
    layout; the result is the NCHW view of the GEMM's NHWC output.

    gelu is ``gelu`` cast back to the input dtype; its cube is two IEEE
    multiplies, as numpy's f32 ``pow`` is a CPU-dependent SIMD path.  avgpool
    sums its k*k windows in the input dtype with ``window_sums``, in the order
    the integer engine's avgpool sums its codes, then divides by k*k.
    """
    op = layer.op_kind
    if op == "linear":
        if x.ndim != 2 or x.shape[1] != layer.in_channels:
            raise ShapeError(f"linear expects (N, {layer.in_channels}), got {x.shape}", index)
        return x @ layer.weight.T + layer.bias
    if op == "conv2d":
        if x.ndim != 4 or x.shape[1] != layer.in_channels:
            raise ShapeError(f"conv2d expects (N, {layer.in_channels}, H, W), got {x.shape}", index)
        cols, h_out, w_out = im2col(x.transpose(0, 2, 3, 1), layer.kernel, layer.stride, layer.pad)
        flat = cols @ weight_matrix(layer.weight).T + layer.bias
        return np.moveaxis(flat.reshape(x.shape[0], h_out, w_out, layer.out_channels), 3, 1)
    if op == "relu":
        return np.maximum(x, 0.0)
    if op == "gelu":
        return gelu(x).astype(x.dtype)
    if op == "avgpool":
        if x.ndim != 4:
            raise ShapeError(f"avgpool expects (N, C, H, W), got {x.shape}", index)
        pooled = window_sums(x.transpose(0, 2, 3, 1), layer.kernel, layer.stride, x.dtype)
        pooled /= layer.kernel**2
        return np.moveaxis(pooled, 3, 1)
    if op == "flatten":
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))
    raise ShapeError(f"unknown op_kind {op!r}", index)


def model_forward(bundle: ModelBundle, x):
    """Full deterministic forward pass; input shape checked against the manifest."""
    x = np.asarray(x, dtype=np.float32)
    want = tuple(bundle.manifest["input_shape"])
    if x.shape[1:] != want:
        raise ShapeError(f"input shape {x.shape[1:]} does not match manifest {want}")
    for i, layer in enumerate(bundle.layers):
        x = layer_forward(layer, x, index=i)
    return x


# ---------------------------------------------------------------------------
# bundle construction and serialization


def _tensor_entry(arr):
    return {"shape": list(arr.shape), "kind": DTYPE_TO_KIND[arr.dtype.newbyteorder("<")]}


def _strings(value):
    """The set of strings in a manifest value, at any depth: the blob names it may hold."""
    found, todo = set(), [value]
    while todo:
        v = todo.pop()
        if isinstance(v, str):
            found.add(v)
        elif isinstance(v, dict):
            todo.extend(v.values())
        elif isinstance(v, list):
            todo.extend(v)
    return found


def build_from_layers(layers, input_shape, name="model", metadata=None):
    """Assemble a ModelBundle from LayerSpec objects through ``LAYER_RECORDS``; ``ShapeError`` names a value it cannot keep."""
    blobs, entries = {}, []
    for i, spec in enumerate(layers):
        try:
            entries.append(write_record((LAYER_KIND, *LAYER_RECORDS.get(spec.op_kind, ())), i, spec, blobs))
        except ValueError as e:
            raise ShapeError(str(e), i) from None
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "input_shape": list(input_shape),
        "metadata": metadata or {},
        "layers": entries,
        "tensors": {blob: _tensor_entry(arr) for blob, arr in blobs.items()},
    }
    bundle = ModelBundle(manifest, blobs)
    validate_bundle(bundle)
    return bundle


def build_mlp(dims, activation="relu", rng=None, weights=None):
    """Linear stack with ``activation`` between hidden layers.

    ``dims`` is (in, h1, ..., out).  Pass ``weights`` as [(W, b), ...] to pin
    parameters; otherwise they are He-initialized from ``rng``.
    """
    if rng is None and weights is None:
        rng = np.random.default_rng(0)
    layers = []
    for i in range(len(dims) - 1):
        cin, cout = dims[i], dims[i + 1]
        if weights is not None:
            w, b = weights[i]
            w = np.asarray(w, dtype=np.float32)
            b = np.asarray(b, dtype=np.float32)
        else:
            w = (rng.standard_normal((cout, cin)) * np.sqrt(2.0 / cin)).astype(np.float32)
            b = np.zeros(cout, dtype=np.float32)
        layers.append(LayerSpec("linear", cin, cout, weight=w, bias=b))
        if i < len(dims) - 2:
            layers.append(LayerSpec(activation))
    return build_from_layers(layers, (dims[0],))


def validate_bundle(bundle: ModelBundle):
    """Check blob references, shapes and kinds, every layer, and channel chaining."""
    m = bundle.manifest
    for name, entry in m["tensors"].items():
        arr = bundle.tensor(name)
        want = tuple(entry["shape"])
        if arr.shape != want:
            raise BundleError(f"blob {name!r} shape {arr.shape} != manifest {want}")
        if DTYPE_TO_KIND.get(arr.dtype.newbyteorder("<")) != entry["kind"]:
            raise BundleError(f"blob {name!r} kind mismatch")
    for name in bundle.blobs:
        if name not in m["tensors"]:
            raise BundleError(f"blob {name!r} not registered in manifest")
    # channel chaining: run a shape-only pass
    shape = tuple(m["input_shape"])
    for i, layer in enumerate(bundle.layers):
        layer.validate(i)
        op = layer.op_kind
        if op == "linear":
            if len(shape) != 1 or shape[0] != layer.in_channels:
                raise BundleError(f"layer {i}: linear in_channels {layer.in_channels} does not chain from {shape}")
            shape = (layer.out_channels,)
        elif op in ("conv2d", "avgpool"):
            if len(shape) != 3 or (op == "conv2d" and shape[0] != layer.in_channels):
                raise BundleError(f"layer {i}: {op} input does not chain from {shape}")
            try:
                h, w = window_positions(shape[1], shape[2], layer.kernel, layer.stride, layer.pad)
            except ShapeError:
                raise BundleError(f"layer {i}: {op} geometry leaves no output") from None
            shape = (layer.out_channels if op == "conv2d" else shape[0], h, w)
        elif op == "flatten":
            shape = (int(np.prod(shape)),)
    return shape


def save_bundle(bundle: ModelBundle, path, force=False):
    """Write manifest.json and the blob file, every blob as raw little-endian bytes in name order, into a directory.

    The files are written into a new sibling directory, which then takes the
    place of ``path``.  A bundle already there (``force``) is renamed aside
    and removed only after the swap, so no stale blob of it survives, and a
    write that fails midway leaves it as it was.  ``force`` replaces only a
    directory that holds a bundle (a ``manifest.json``) or nothing.
    """
    path = Path(path)
    if path.exists() and any(path.iterdir()):
        if not force:
            raise BundleError(f"output directory {path} exists and is not empty (use force)")
        if not (path / "manifest.json").is_file():
            raise BundleError(f"output directory {path} holds files but no bundle; force replaces only a bundle")
    target = path.resolve()
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(f".{target.name}.{uuid.uuid4().hex[:12]}.tmp")
    staging.mkdir()
    try:
        tensors, offset = {}, 0
        with open(staging / BLOB_FILE, "wb") as f:
            for name, entry in sorted(bundle.manifest["tensors"].items()):
                tensors[name] = {**entry, "offset": offset}
                arr = bundle.blobs[name]
                offset += f.write(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")))
        manifest = {**bundle.manifest, "tensors": tensors}
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if target.exists():
        old = staging.with_suffix(".old")
        target.rename(old)
        staging.rename(target)
        shutil.rmtree(old)
    else:
        staging.rename(target)
    return path


def load_bundle(path) -> ModelBundle:
    """Read a bundle directory back; validates the format version, the blob file's layout and every reference."""
    path = Path(path)
    mf = path / "manifest.json"
    if not mf.is_file():
        raise BundleError(f"no manifest.json under {path}")
    try:
        manifest = json.loads(mf.read_text())
        if manifest.get("format_version") != FORMAT_VERSION:
            raise BundleError(f"unsupported format_version {manifest.get('format_version')!r}")
        bundle = _read_blobs(path / BLOB_FILE, manifest)
        validate_bundle(bundle)
    except (KeyError, TypeError, ValueError, AttributeError) as e:  # a manifest that is not JSON or lacks a field
        raise BundleError(f"malformed bundle under {path}: {type(e).__name__} {e}") from e
    return bundle


def _read_blobs(blob_file, manifest) -> ModelBundle:
    """The bundle whose blobs ``manifest``'s tensor entries cut from ``blob_file``; their byte ranges must tile it."""
    if not blob_file.is_file():
        raise BundleError(f"no blob file {BLOB_FILE} beside the manifest")
    data = blob_file.read_bytes()
    blobs, end = {}, 0
    for name, entry in sorted(manifest["tensors"].items(), key=lambda item: item[1]["offset"]):
        dtype = KIND_TO_DTYPE.get(entry["kind"])
        if dtype is None:
            raise BundleError(f"blob {name!r}: unknown tensor kind {entry['kind']!r}")
        count, offset = math.prod(entry["shape"]), entry.pop("offset")
        if offset != end or end + count * dtype.itemsize > len(data):
            raise BundleError(f"blob {name!r} at offset {offset}: {BLOB_FILE} has a gap, overlap or end at byte {end}")
        blobs[name] = np.frombuffer(data, dtype, count, end).reshape(entry["shape"]).copy()
        end += count * dtype.itemsize
    if end != len(data):
        raise BundleError(f"{BLOB_FILE} holds {len(data)} bytes, its blobs {end}")
    return ModelBundle(manifest, blobs)


def bundles_equal(a: ModelBundle, b: ModelBundle) -> bool:
    """Bit-exact equality of manifest and blobs."""
    if a.manifest != b.manifest:
        return False
    if set(a.blobs) != set(b.blobs):
        return False
    for name in a.blobs:
        x, y = a.blobs[name], b.blobs[name]
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


# ---------------------------------------------------------------------------
# manifest records

# what a value of each dtype must be, as errors say it; a float's must be finite
_MUST = {bool: "be true or false", str: "be a string"}
_MUST.update(dict.fromkeys((int, np.int32, np.int64), "hold integers"))
_BOOLS = frozenset((bool, np.bool_))  # the only types a bool key takes, and no other key


@dataclass(frozen=True)
class RecordKey:
    """One key of a manifest record, the attribute that holds it, and how the manifest stores it.

    ``form`` is ``scalar`` (inline, converted with ``dtype``), ``channels`` (a
    1-D blob of ``dtype``, read back through a safe cast, so floats in an
    integer key or i64 in an i32 key fail instead of truncating) or ``blob``
    (an array blob, made contiguous in ``dtype`` if it has one, and read back
    as stored).  The record holds a blob's name,
    ``blob.format(i=record position)``.  Only a key with a ``default`` may be
    missing; a key that no table declares is ignored.  A scalar is read and
    written only if the conversion keeps its value: an integer key rejects
    ``8.9`` or ``"8"`` instead of truncating or parsing it (``8.0`` reads as
    ``8``), a float key NaN, infinities and strings, and a string key
    numbers.  ``true`` and ``np.bool_`` are no numbers, and only a ``bool``
    key, which rejects all else, takes them.
    """

    key: str
    attr: str  # of the object the record describes
    form: str
    dtype: type | None = None
    blob: str = ""
    default: object = None

    def write(self, i, holder, blobs):
        """This key's manifest value for record ``i``, which must read back as given; a blob it names goes into ``blobs``."""
        value = getattr(holder, self.attr)
        if self.form == "scalar":
            return self._scalar(value)
        if value is None:
            raise ValueError(f"{self.key} must be an array, got None")
        name = self.blob.format(i=i)
        blobs[name] = np.asarray(value, self.dtype) if self.form == "channels" else np.ascontiguousarray(value, self.dtype)
        return name

    def read(self, where, record, bundle):
        """The attribute value that ``record`` stores under this key.

        KeyError if the key is missing and has no default; ValueError naming
        ``where`` (put before the key, as ``"layer 3:"``) and the key if the
        value is not of the key's kind.
        """
        raw = record[self.key] if self.default is None or self.key in record else self.default
        if self.form == "scalar":
            return self._scalar(raw, where)
        if not isinstance(raw, str) or raw not in bundle.blobs:
            raise ValueError(f"{where} {self.key} must name a blob, got {raw!r}")
        blob = bundle.blobs[raw]
        if self.form == "blob":
            return blob
        try:  # the safe cast lets through only values of the key's kind
            value = blob.astype(self.dtype, casting="safe")
            if value.ndim == 1 and (value.dtype.kind != "f" or np.isfinite(value).all()):
                return value
        except TypeError:
            pass
        got = f"a {blob.dtype} blob of shape {blob.shape}"
        raise ValueError(f"{where} {self.key} must {_MUST.get(self.dtype, 'hold finite numbers')}, got {got}")

    def _scalar(self, raw, where=None):
        """``raw`` converted with ``dtype``; ValueError naming ``where`` and the key unless that keeps its kind and value."""
        dtype = self.dtype
        try:
            value = dtype(raw)
            # bool() reads "false" and 2 as true, int() 8.9 and "8" as 8; true is no number, and 1 no flag
            if (type(raw) in _BOOLS) is (dtype is bool) and value == raw and (dtype is not float or math.isfinite(value)):
                return value
        except (TypeError, ValueError, OverflowError):
            pass
        named = self.key if where is None else f"{where} {self.key}"
        raise ValueError(f"{named} must {_MUST.get(dtype, 'hold finite numbers')}, got {raw!r}")

    def show(self, holder):
        """This key's value in ``holder`` as ``intengine.dump_fused`` prints it."""
        value = getattr(holder, self.attr)
        if self.form == "blob":
            return f"shape={list(value.shape)} dtype={value.dtype}"
        return value.tolist() if isinstance(value, np.ndarray) else value


# an activation grid's record, keyed by the attributes of ``intengine.IntActivationParams``
GRID_KEYS = (
    RecordKey("scale", "s", "scalar", float),
    RecordKey("zero_point", "z", "scalar", int),
    RecordKey("bitwidth", "bitwidth", "scalar", int),
)


# the float ``layers`` section: each record holds its ``LAYER_KIND``, then the keys its op kind lists
LAYER_KIND = RecordKey("op_kind", "op_kind", "scalar", str)
_CHANNELS = tuple(RecordKey(k, k, "scalar", int) for k in ("in_channels", "out_channels"))
_WINDOW = tuple(RecordKey(k, k, "scalar", int) for k in ("kernel", "stride", "pad"))
_PARAMS = tuple(RecordKey(k, k, "blob", np.float32, blob=f"layer{{i}}.{k}") for k in ("weight", "bias"))
LAYER_RECORDS = {
    "linear": _CHANNELS + _PARAMS,
    "conv2d": _CHANNELS + _WINDOW + _PARAMS,
    "avgpool": _WINDOW,
    **dict.fromkeys(("relu", "gelu", "flatten"), ()),
}
# the training seed that ``train_synthetic`` records in the ``metadata`` section
METADATA_SEED = RecordKey("seed", "seed", "scalar", int)


def write_record(keys, i, holder, blobs=None) -> dict:
    """Record ``i`` of ``keys`` as ``{key: manifest value}``, from ``holder``'s attributes; blobs go into ``blobs``."""
    return {k.key: k.write(i, holder, blobs) for k in keys}


def read_record(keys, where, record, bundle=None) -> dict:
    """``{attr: value}`` of ``record`` for ``keys``, by ``RecordKey.read``."""
    return {k.attr: k.read(where, record, bundle) for k in keys}


@contextmanager
def reading_section(name, error):
    """``error`` for a key, type, value or attribute error out of the block: section ``name`` is malformed."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise error(f"malformed {name} section: {type(e).__name__} {e}") from e


# ---------------------------------------------------------------------------
# synthetic tasks and trainer


@dataclass(frozen=True)
class TaskSpec:
    """Classification task: k-class Gaussian blobs or the 2-class two-spiral set."""

    kind: str = "blobs"  # blobs | spirals
    classes: int = 10
    dim: int = 8
    train_n: int = 3000
    test_n: int = 1000
    noise: float = 1.0
    center_spread: float = 2.5
    center_offset: float = 0.0  # uncentered features stress offset errors under weight rounding
    hidden: tuple = (24, 24)
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in ("blobs", "spirals"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "spirals" and (self.classes != 2 or self.dim != 2):
            raise ValueError("spirals task is 2-class in 2-D")


def make_dataset(task: TaskSpec, seed: int):
    """Deterministic (X_train, y_train, X_test, y_test) for a task + seed."""
    rng = np.random.default_rng([seed, 0xDA7A])
    total = task.train_n + task.test_n
    if task.kind == "blobs":
        centers = task.center_offset + rng.standard_normal((task.classes, task.dim)) * task.center_spread
        y = rng.integers(0, task.classes, size=total)
        x = centers[y] + rng.standard_normal((total, task.dim)) * task.noise
    else:
        y = rng.integers(0, 2, size=total)
        t = rng.uniform(0.25, 3.0, size=total) * np.pi
        r = t + rng.standard_normal(total) * task.noise * 0.3
        sign = np.where(y == 0, 1.0, -1.0)
        x = np.stack([sign * r * np.cos(t), sign * r * np.sin(t)], axis=1)
    x = x.astype(np.float32)
    return (
        x[: task.train_n],
        y[: task.train_n].astype(np.int64),
        x[task.train_n :],
        y[task.train_n :].astype(np.int64),
    )


@reading_section("metadata", BundleError)
def task_dataset(bundle: ModelBundle):
    """``make_dataset`` for the task and seed that ``train_synthetic`` recorded in the metadata."""
    meta = bundle.manifest.get("metadata", {})
    if "task" not in meta:
        raise BundleError("bundle metadata carries no task; cannot derive its dataset")
    task = TaskSpec(**dict(meta["task"], hidden=tuple(meta["task"]["hidden"])))
    return make_dataset(task, METADATA_SEED.read("metadata", meta, bundle))


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_synthetic(
    task: TaskSpec,
    seed: int,
    epochs: int = 500,
    lr: float = 0.04,
    min_accuracy: float = 0.8,
    name=None,
) -> ModelBundle:
    """Train an MLP on the task with plain full-batch SGD; fully seed-deterministic.

    Raises TrainError (carrying the final accuracy) if the held-out accuracy
    lands below ``min_accuracy``.
    """
    x_tr, y_tr, x_te, y_te = make_dataset(task, seed)
    dims = (task.dim, *task.hidden, task.classes)
    rng = np.random.default_rng([seed, 0x1417])
    ws = [
        (rng.standard_normal((dims[i + 1], dims[i])) * np.sqrt(2.0 / dims[i])).astype(np.float64)
        for i in range(len(dims) - 1)
    ]
    bs = [np.zeros(dims[i + 1], dtype=np.float64) for i in range(len(dims) - 1)]
    act, act_grad = (
        (lambda v: np.maximum(v, 0.0), lambda v: (v > 0).astype(np.float64))
        if task.activation == "relu"
        else (gelu, gelu_grad)
    )
    xb = x_tr.astype(np.float64)
    onehot = np.eye(task.classes)[y_tr]
    n = xb.shape[0]
    for _ in range(epochs):
        # forward
        pre, post = [], [xb]
        h = xb
        for li in range(len(ws)):
            z = h @ ws[li].T + bs[li]
            pre.append(z)
            h = act(z) if li < len(ws) - 1 else z
            post.append(h)
        # backward (softmax cross-entropy)
        delta = (_softmax(post[-1]) - onehot) / n
        for li in reversed(range(len(ws))):
            gw = delta.T @ post[li]
            gb = delta.sum(axis=0)
            if li > 0:
                delta = (delta @ ws[li]) * act_grad(pre[li - 1])
            ws[li] -= lr * gw
            bs[li] -= lr * gb
    weights = [(w.astype(np.float32), b.astype(np.float32)) for w, b in zip(ws, bs)]
    bundle = build_mlp(dims, activation=task.activation, weights=weights)
    preds = model_forward(bundle, x_te).argmax(axis=1)
    acc = float((preds == y_te).mean())
    if acc < min_accuracy:
        raise TrainError(f"trainer stalled at held-out accuracy {acc:.3f} < {min_accuracy}", acc)
    bundle.manifest["name"] = name or f"{task.kind}-mlp-seed{seed}"
    bundle.manifest["metadata"] = {
        "task": asdict(task) | {"hidden": list(task.hidden)},
        "seed": seed,
        "trainer": {"epochs": epochs, "lr": lr},
        "held_out_accuracy": acc,
    }
    return bundle
