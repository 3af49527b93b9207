"""Specimen mechanical data model and synthetic pore-field generation.

An :class:`ElasticElementField` is the specimen's mechanical fingerprint:
per-element volumes plus the elastic stress tensor per unit nominal load, so
one elastic description is reusable across every load amplitude.  The
generator replaces tomography-driven meshing with analytical spherical-cavity
stress fields discretized into concentric shells, keeping generation cost
proportional to the number of pores.  Precomputed strain-range tables across
load levels (the reusable input to the likelihood) also live here.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import voigt
from .material import (
    DEFAULT_CYCLE_SAMPLES,
    DEFAULT_SHELLS,
    DEFAULT_STABILIZATION_CYCLES,
    ChabocheParams,
    CriterionError,
    FieldFormatError,
    FieldGenerationError,
    PoreFieldStats,
    _radius_law,
    check_count,
    utf8_error,
)

FIELD_HEADER = "id,volume_mm3,sxx,syy,szz,sxy,syz,sxz"
TABLE_HEADER = "element_id,load_MPa,delta_eps,volume_mm3"

#: Bytes per read when a criterion table CSV is hashed for its sidecar.
SIDECAR_HASH_BLOCK = 1 << 16

#: Shells extend to this multiple of the pore radius; beyond it the stress
#: concentration has decayed below ~2 % and the material counts as bulk.
SHELL_EXTENT = 4.0


class ExtrapolationError(ValueError):
    """Requested load amplitude lies outside the precomputed level grid."""


@dataclass(eq=False)
class ElasticElementField:
    """Per-element volumes and unit-load elastic stress tensors."""

    ids: np.ndarray
    volumes: np.ndarray
    sigma_unit: np.ndarray
    geometry_tag: str = ""
    nominal_area_note: str = ""

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.volumes = np.asarray(self.volumes, dtype=float)
        self.sigma_unit = np.asarray(self.sigma_unit, dtype=float)
        n = self.ids.size
        if self.volumes.shape != (n,) or self.sigma_unit.shape != (n, 6):
            raise ValueError("inconsistent field array shapes")
        if n == 0:
            raise ValueError("field must contain at least one element")
        if not np.all(np.isfinite(self.volumes) & (self.volumes > 0.0)):
            raise ValueError("element volumes must be positive and finite")
        if not np.all(np.isfinite(self.sigma_unit)):
            raise ValueError("unit stress tensors must be finite")
        if np.unique(self.ids, return_counts=True)[0].size != n:  # a plain np.unique loads numpy.ma
            raise ValueError("element ids must be unique")

    @property
    def n_elements(self) -> int:
        return int(self.ids.size)

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.volumes))


#: Largest double below 1.
_MAX_UNIFORM = 1.0 - 2.0**-53


def cavity_peak_kt(nu: float) -> float:
    """Equatorial stress concentration of a spherical cavity in uniaxial tension."""
    return (27.0 - 15.0 * nu) / (2.0 * (7.0 - 5.0 * nu))


def _sample_radii_mm(stats: PoreFieldStats, count: int, rng) -> np.ndarray:
    """Truncated log-normal radii, in mm, truncated below the acceptance radius."""
    from statistics import NormalDist  # here, not at the top: only the generator needs it

    mu, s, floor = _radius_law(stats)
    # rounding can carry a draw just below 1 up to 1, which has no quantile
    u = np.minimum(floor + rng.random(count) * (1.0 - floor), _MAX_UNIFORM)
    normal = NormalDist()
    radii = np.exp(mu + s * np.array([normal.inv_cdf(x) for x in u]))
    # far in the upper tail the floor's CDF value is rounded to a double a few
    # ulp below 1, and its quantile can fall short of the acceptance radius
    return np.maximum(radii, stats.accept_radius_um / 1000.0)


def synth_field_report(
    stats: PoreFieldStats,
    resolution: int = DEFAULT_SHELLS,
    seed=0,
    nu: float = 0.3,
    n_pores: int | None = None,
) -> tuple[ElasticElementField, dict]:
    """Generate a synthetic porous field plus a generation report.

    Pore count is Poisson in the gauge volume (unless pinned by ``n_pores``),
    centers are uniform in the gauge cylinder, radii follow the truncated
    law.  Each pore becomes ``resolution`` concentric shell elements whose
    unit stress is the analytical cavity concentration 1 + (Kt-1)(a/r)^3
    evaluated at the shell inner radius, along the remote uniaxial direction;
    surface-breaking pores (center within one radius of the lateral surface)
    get their innermost shell boosted.  The remaining volume is one bulk
    element at the nominal uniaxial stress, so the total element volume
    equals the gauge volume exactly.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    rng = np.random.default_rng(seed)
    gauge_volume = stats.gauge_volume
    if n_pores is None:
        count = int(rng.poisson(stats.pore_density * gauge_volume))
    elif n_pores < 0:
        raise ValueError(f"n_pores must be nonnegative, got {n_pores}")
    else:
        count = int(n_pores)
    kt_peak = cavity_peak_kt(nu)

    volumes = np.array([gauge_volume])
    tensors = np.array([voigt.UNIAXIAL_X])
    surface_breaking = 0
    if count > 0:
        radii = _sample_radii_mm(stats, count, rng)
        # uniform centers in the cylinder; only the radial coordinate matters
        # for the lateral surface-breaking classification
        radial = stats.gauge_radius_mm * np.sqrt(rng.random(count))
        is_surface = radial > stats.gauge_radius_mm - radii
        surface_breaking = int(np.sum(is_surface))
        ratio = SHELL_EXTENT ** (np.arange(resolution + 1) / resolution)
        kt_shells = 1.0 + (kt_peak - 1.0) * ratio[:-1] ** -3
        # one row per pore, one column per shell bound; cubing the contiguous
        # bounds gives each cube bit for bit as cubing one pore's bounds alone
        cubes = (radii[:, None] * ratio) ** 3
        shell_vols = 4.0 / 3.0 * math.pi * (cubes[:, 1:] - cubes[:, :-1])
        # the per-pore sums are added in pore order: a cumulative sum is sequential
        shell_total = float(np.cumsum(np.sum(shell_vols, axis=1))[-1])
        kt = np.tile(kt_shells, (count, 1))
        kt[is_surface, 0] *= stats.surface_kt_boost
        bulk = gauge_volume - shell_total
        if bulk <= 0.0:
            raise FieldGenerationError(
                f"shell volume {shell_total:.3f} mm^3 exceeds the gauge volume {gauge_volume:.3f} mm^3"
            )
        volumes = np.concatenate([[bulk], shell_vols.ravel()])
        tensors = np.vstack([tensors, kt.ravel()[:, None] * voigt.UNIAXIAL_X])

    field = ElasticElementField(
        ids=np.arange(volumes.size),
        volumes=volumes,
        sigma_unit=tensors,
        geometry_tag=f"cylinder r={stats.gauge_radius_mm} L={stats.gauge_length_mm}",
        nominal_area_note="unit nominal amplitude = 1 MPa uniaxial along x",
    )
    info = {
        "seed": seed if isinstance(seed, int) else str(seed),
        "pore_count": count,
        "surface_breaking_count": surface_breaking,
        "gauge_volume_mm3": gauge_volume,
        "pore_volume_fraction": float(
            np.sum(4.0 / 3.0 * math.pi * radii**3) / gauge_volume
        )
        if count > 0
        else 0.0,
    }
    return field, info


def synth_field(
    stats: PoreFieldStats,
    resolution: int = DEFAULT_SHELLS,
    seed=0,
    nu: float = 0.3,
    n_pores: int | None = None,
) -> ElasticElementField:
    """Synthetic porous field; see :func:`synth_field_report` for the recipe."""
    return synth_field_report(stats, resolution, seed, nu, n_pores)[0]


def tile_field(field: ElasticElementField, k: int) -> ElasticElementField:
    """Concatenate k copies of a field with re-indexed element ids."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return field
    n = field.n_elements
    offsets = np.repeat(np.arange(k) * (int(np.max(field.ids)) + 1), n)
    return ElasticElementField(
        ids=np.tile(field.ids, k) + offsets,
        volumes=np.tile(field.volumes, k),
        sigma_unit=np.tile(field.sigma_unit, (k, 1)),
        geometry_tag=f"{field.geometry_tag} x{k}".lstrip(),
        nominal_area_note=field.nominal_area_note,
    )


def thin_variant(stats: PoreFieldStats, radius_divisor: float) -> PoreFieldStats:
    """Iso-volume thin-specimen statistics: radius/d, length*d^2."""
    if radius_divisor == 1.0:
        return stats
    if not 1.0 < radius_divisor < math.inf:
        raise ValueError(f"radius divisor must be finite and >= 1, got {radius_divisor}")
    return replace(
        stats,
        gauge_radius_mm=stats.gauge_radius_mm / radius_divisor,
        gauge_length_mm=stats.gauge_length_mm * radius_divisor**2,
    )


def notch_variant(field: ElasticElementField, kt: float, volume_fraction: float) -> ElasticElementField:
    """Embed a notch-like elevated-stress region covering a volume fraction.

    Every element is split: a ``volume_fraction`` share of its volume sees
    the element's stress scaled by ``kt`` (the notch region, carrying the
    same pore population as the rest of the specimen), the remainder stays
    as-is.  Total volume is conserved exactly.  On a pore-free field this
    reduces to a plain bulk-plus-notch-block geometry.
    """
    if not kt > 1.0:
        raise ValueError(f"kt must exceed 1, got {kt}")
    if kt == math.inf:
        raise ValueError(f"kt must be finite, got {kt}")
    if not 0.0 < volume_fraction < 1.0:
        raise ValueError("volume_fraction must be in (0, 1)")
    offset = int(np.max(field.ids)) + 1
    return ElasticElementField(
        ids=np.concatenate([field.ids, field.ids + offset]),
        volumes=np.concatenate(
            [(1.0 - volume_fraction) * field.volumes, volume_fraction * field.volumes]
        ),
        sigma_unit=np.vstack([field.sigma_unit, kt * field.sigma_unit]),
        geometry_tag=f"{field.geometry_tag} notch kt={kt} f={volume_fraction}".lstrip(),
        nominal_area_note=field.nominal_area_note,
    )


# ---------------------------------------------------------------------------
# Field files
# ---------------------------------------------------------------------------

def _row_dtype(header: str, int_column: str) -> np.dtype:
    """Row dtype of a CSV file: the header's columns as ``float64``, ``int_column`` as ``int64``."""
    return np.dtype([(name, np.int64 if name == int_column else np.float64) for name in header.split(",")])


def read_header(fh, header: str) -> tuple[dict, int]:
    """Tags and line number of the header of the open CSV file ``fh``, which must read ``header``.

    Blank and comment lines may precede it; each ``# key: value`` one sets the tag ``key``, the last one wins.
    """
    tags = {}
    for header_line, raw in enumerate(iter(fh.readline, ""), start=1):
        line = raw.strip()
        if line.startswith("# ") and ":" in line:
            key, value = line[2:].split(":", 1)
            tags[key] = value.strip()
        elif line and not line.startswith("#"):
            if line != header:
                raise FieldFormatError(fh.name, header_line, f"expected header '{header}'")
            return tags, header_line
    raise FieldFormatError(fh.name, 0, "missing header line")


def _read_rows(path, dtype: np.dtype, messages=None):
    """Tags, header line number and rows of a CSV file headed by ``dtype``'s names.

    The rows become a structured array of ``dtype`` in one numpy pass.  That
    pass refuses comment and whitespace-only lines among the rows, some
    spellings ``int`` and ``float`` accept and integers spelled as floats; the
    rows are then parsed line by line, each cell by ``int`` or ``float`` as its
    kind, raising at the first bad line with ``messages[column]`` if given.
    Bytes that are not UTF-8 raise at the line that holds them.
    """
    names = dtype.names
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tags, header_line = read_header(fh, ",".join(names))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no rows: the callers say so
                    warnings.simplefilter("error", DeprecationWarning)  # an int cell numpy would truncate
                    return tags, header_line, np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError:
                fh.seek(0)
            rows = []
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line_no <= header_line or not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != len(names):
                    raise FieldFormatError(path, line_no, f"expected {len(names)} columns, got {len(parts)}")
                row = []
                for name, cell in zip(names, parts):
                    try:
                        row.append(np.int64(int(cell)) if dtype[name].kind == "i" else float(cell))
                    except (ValueError, OverflowError) as exc:
                        message = f"{messages[name]}, got {cell.strip()!r}" if name in (messages or {}) else str(exc)
                        raise FieldFormatError(path, line_no, message) from exc
                rows.append(tuple(row))
        return tags, header_line, np.array(rows, dtype=dtype)
    except UnicodeDecodeError as exc:
        raise FieldFormatError(path, *utf8_error(path)) from exc


def _check_rows(path, header_line: int, checks) -> None:
    """Raise at the first row that fails a check.

    ``checks`` are ``(bad, message)`` pairs in the order a row is checked:
    ``bad`` masks the rows and ``message(i)`` describes row ``i``.  The row's
    file line is found by counting the data lines after the header.
    """
    failing = [int(np.argmax(bad)) for bad, _ in checks if bad.any()]
    if not failing:
        return
    row = min(failing)
    message = next(message for bad, message in checks if bad[row])
    with open(path, "r", encoding="utf-8") as fh:
        data_lines = (n for n, raw in enumerate(fh, start=1) if n > header_line and raw.strip()[:1] not in ("", "#"))
        raise FieldFormatError(path, next(itertools.islice(data_lines, row, None)), message(row))


def _distinct_rows(rows: np.ndarray):
    """``(first, inverse, counts)`` of the rows told apart by bytes (``-0.0`` is not ``0.0``), first seen first."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse], counts[order]


def _format_rows(rows: np.ndarray, fmt):
    """``fmt(row)`` for each row of a 2-D float array, in order, as a generator.

    A row that occurs more than once is formatted once and its text shared.
    Rows are told apart by their bytes, so ``-0.0`` and ``0.0`` keep their
    own text.  Rows that occur once are converted and formatted as they
    stream out and not kept: a mesh of distinct rows holds no Python floats
    or text beyond the row being written.
    """
    first, inverse, counts = _distinct_rows(rows)
    shared = {slot: fmt(rows[i].tolist()) for slot, i in enumerate(first.tolist()) if counts[slot] > 1}
    return (shared[slot] if slot in shared else fmt(rows[n].tolist()) for n, slot in enumerate(inverse.tolist()))


def check_one_line(what: str, *texts: str, tag: bool = False) -> None:
    """Raise ValueError naming ``what`` if a text bound for one comment line holds a line break (``\\n`` or ``\\r``).

    A ``tag`` (a header value that loads back) must also have no leading or
    trailing whitespace, which :func:`read_header` strips.
    """
    for text in texts:
        if "\n" in text or "\r" in text:
            raise ValueError(f"{what} {text!r} holds a line break")
        if tag and text != text.strip():
            raise ValueError(f"{what} {text!r} has leading or trailing whitespace")


def save_field(path, field: ElasticElementField) -> None:
    """Write a field file (comma-separated, full round-trip precision).

    A geometry tag or note holding a line break, which :func:`load_field`
    would refuse, or outer whitespace, which it would drop, raises
    ValueError before the file is opened.
    """
    check_one_line("field geometry tag", field.geometry_tag, tag=True)
    check_one_line("field note", field.nominal_area_note, tag=True)
    with open(path, "w", encoding="utf-8") as fh:
        if field.geometry_tag:
            fh.write(f"# geometry: {field.geometry_tag}\n")
        if field.nominal_area_note:
            fh.write(f"# note: {field.nominal_area_note}\n")
        fh.write(FIELD_HEADER + "\n")
        tensors = _format_rows(field.sigma_unit, lambda tensor: ",".join(map(repr, tensor)))
        rows = zip(field.ids.tolist(), field.volumes.tolist(), tensors)
        fh.writelines(f"{eid},{vol!r},{tensor}\n" for eid, vol, tensor in rows)


def load_field(path) -> ElasticElementField:
    """Parse a field file, validating invariants with line-numbered errors."""
    tags, header_line, rows = _read_rows(path, _row_dtype(FIELD_HEADER, "id"))
    if rows.size == 0:
        raise FieldFormatError(path, 0, "field file has no element rows")
    ids = rows["id"].copy()
    volumes = rows["volume_mm3"].copy()
    sigma_unit = np.column_stack([rows[name] for name in rows.dtype.names[2:]])
    repeated = np.ones(ids.size, dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    _check_rows(path, header_line, [
        (~(np.isfinite(volumes) & np.all(np.isfinite(sigma_unit), axis=1)),
         lambda i: f"non-finite value for element {ids[i]}"),
        (volumes <= 0.0, lambda i: f"nonpositive volume {volumes[i]} for element {ids[i]}"),
        (repeated, lambda i: f"duplicate element id {ids[i]}"),
    ])
    return ElasticElementField(
        ids=ids, volumes=volumes, sigma_unit=sigma_unit, geometry_tag=tags.get("geometry", ""), nominal_area_note=tags.get("note", "")
    )


# ---------------------------------------------------------------------------
# Criterion tables
# ---------------------------------------------------------------------------

def _falling_rows(delta_eps) -> np.ndarray:
    """Rows of an (n, levels) strain-range array that fall by more than 1e-15 as the load rises."""
    return np.any(np.diff(delta_eps, axis=1) < -1e-15, axis=1)


@dataclass(eq=False)
class CriterionTable:
    """Stabilized-cycle strain ranges per element across load levels."""

    element_ids: np.ndarray
    volumes: np.ndarray
    load_levels: np.ndarray
    delta_eps: np.ndarray
    geometry_tag: str = ""

    def __post_init__(self):
        self.element_ids = np.asarray(self.element_ids, dtype=np.int64)
        self.volumes = np.asarray(self.volumes, dtype=float)
        self.load_levels = np.asarray(self.load_levels, dtype=float)
        self.delta_eps = np.asarray(self.delta_eps, dtype=float)
        n, levels = self.element_ids.size, self.load_levels.size
        if self.volumes.shape != (n,) or self.delta_eps.shape != (n, levels):
            raise ValueError("inconsistent criterion table shapes")
        if not np.all(np.isfinite(self.volumes) & (self.volumes > 0.0)):
            raise ValueError("element volumes must be positive and finite")
        if not (np.all(np.isfinite(self.delta_eps)) and np.all(np.isfinite(self.load_levels))):
            raise ValueError("strain ranges and load levels must be finite")
        if np.any(self.delta_eps < 0.0):
            raise ValueError("strain ranges must be nonnegative")
        if np.any(np.diff(self.load_levels) <= 0.0):
            raise ValueError("load levels must be strictly ascending")
        if np.any(_falling_rows(self.delta_eps)):
            raise ValueError("strain ranges must be nondecreasing along load levels")

    def interpolate(self, sigma_a: float) -> np.ndarray:
        """Per-element strain range at an arbitrary amplitude.

        Exact grid hits return the stored column; otherwise monotone
        piecewise-linear interpolation between the bracketing levels.
        Amplitudes outside the grid, NaN included, raise
        :class:`ExtrapolationError`.
        """
        levels = self.load_levels
        hit = np.nonzero(levels == sigma_a)[0]
        if hit.size:
            return self.delta_eps[:, hit[0]].copy()
        if not levels[0] <= sigma_a <= levels[-1]:
            raise ExtrapolationError(
                f"amplitude {sigma_a} MPa outside the table grid [{levels[0]}, {levels[-1]}]"
            )
        hi = int(np.searchsorted(levels, sigma_a))
        lo = hi - 1
        w = (sigma_a - levels[lo]) / (levels[hi] - levels[lo])
        return (1.0 - w) * self.delta_eps[:, lo] + w * self.delta_eps[:, hi]


def criterion_table(
    field: ElasticElementField,
    mat: ChabocheParams,
    load_levels,
    cycles: int = DEFAULT_STABILIZATION_CYCLES,
    samples: int = DEFAULT_CYCLE_SAMPLES,
    failures: list | None = None,
) -> CriterionTable:
    """Stabilized-cycle strain range for every element at every load level.

    Per element and level the proportional elastic history is the unit
    tensor scaled by the amplitude over a fully reversed cosine cycle; the
    fast plastic correction recovers the stabilized cycle, and the strain
    range is measured along the element's critical direction.  Elements with
    identical unit tensors are solved once and share the row, which
    :func:`porelife.material_point.criterion_rows` computes bit for bit as
    the per-cell chain would.  ``cycles`` and ``samples`` must be integers
    of at least 1.

    Correction failures, and rows whose strain range falls as the load
    rises (the rule :class:`CriterionTable` enforces), raise
    :class:`CriterionError` annotated with the element id, unless a
    ``failures`` list is supplied, in which case failed elements are skipped
    and recorded there as ``(element_id, exception)``; when every element
    fails, all are recorded and then the first one's id and cause raised.
    """
    levels = np.asarray(load_levels, dtype=float)
    if levels.size == 0:
        raise ValueError("need at least one load level")
    if np.any(levels <= 0.0):
        raise ValueError("load levels must be positive")
    if np.any(np.diff(levels) <= 0.0):
        raise ValueError("load levels must be strictly ascending")

    cycles, samples = check_count("cycles", cycles), check_count("samples", samples)
    # here, not at the top: the commands that only read tables never load the solvers
    from .material_point import criterion_rows

    first, inverse, _ = _distinct_rows(field.sigma_unit)
    rows, errors = criterion_rows(mat, field.sigma_unit[first], levels, samples, cycles)  # errors: row -> cause
    failed = np.zeros(len(rows), dtype=bool)
    failed[list(errors)] = True
    for k in np.flatnonzero(~failed)[_falling_rows(rows[~failed])].tolist():
        errors[k] = ValueError("strain range falls as the load rises")
        failed[k] = True
    for i in np.flatnonzero(failed[inverse]):
        cause = errors[inverse[i]]
        err = CriterionError(int(field.ids[i]), cause)
        if failures is None:
            raise err from cause
        failures.append((int(field.ids[i]), err))
    kept = np.flatnonzero(~failed[inverse])
    if kept.size == 0:
        raise CriterionError(int(field.ids[0]), errors[inverse[0]]) from errors[inverse[0]]
    return CriterionTable(
        element_ids=field.ids[kept],
        volumes=field.volumes[kept],
        load_levels=levels,
        delta_eps=rows[inverse[kept]],
        geometry_tag=field.geometry_tag,
    )


def save_criterion_table(path, table: CriterionTable, comments=()) -> None:
    """Write a criterion table as long-format CSV, one row per (element, level), then its sidecar.

    An element's rows differ only in their ``,level,value,`` middles; those
    are formatted once per distinct strain-range row.  The binary sidecar
    (see :func:`read_sidecar`) is written after the CSV is closed.  A tag or
    comment holding a line break, or a tag with outer whitespace, raises
    ValueError before the file is opened.
    """
    comments = [f"{c}" for c in comments]
    check_one_line("table geometry tag", table.geometry_tag, tag=True)
    check_one_line("table comment", *comments)
    levels = [f",{level!r}," for level in table.load_levels.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        if table.geometry_tag:
            fh.write(f"# geometry: {table.geometry_tag}\n")
        fh.write(TABLE_HEADER + "\n")
        if not levels:
            return
        middles = _format_rows(table.delta_eps, lambda row: [f"{level}{value!r}," for level, value in zip(levels, row)])
        for eid, vol, pieces in zip(table.element_ids.tolist(), table.volumes.tolist(), middles):
            head, tail = str(eid), f"{vol!r}\n"
            fh.write(head + (tail + head).join(pieces) + tail)
    _save_sidecar(path, table)


def _sidecar_path(path) -> Path | None:
    """``x.criterion.npy`` for the table CSV ``x.criterion.csv``; ``None`` when that is the CSV itself."""
    path = Path(path)
    sidecar = path.parent / (path.stem + ".npy")
    return None if sidecar == path else sidecar


def table_files(path) -> list[Path]:
    """The files :func:`save_criterion_table` writes for ``path``: the CSV, then its sidecar."""
    return [Path(path), _sidecar_path(path)]


def _sidecar_dtype(n: int, levels: int, tag_bytes: int) -> np.dtype:
    """The sidecar's one record: CSV digest, UTF-8 geometry tag and the table's arrays."""
    return np.dtype([
        ("sha256", "S64"),
        ("geometry", "u1", (tag_bytes,)),
        ("element_ids", "<i8", (n,)),
        ("volumes", "<f8", (n,)),
        ("load_levels", "<f8", (levels,)),
        ("delta_eps", "<f8", (n, levels)),
    ])


def _digest(path) -> bytes:
    """Hex SHA-256 of the file's exact bytes, read in blocks of :data:`SIDECAR_HASH_BLOCK`."""
    import hashlib  # here, not at the top: only a digest needs it

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(SIDECAR_HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest().encode()


def _save_sidecar(path, table: CriterionTable) -> None:
    """Write the sidecar of the table CSV just written to ``path`` from ``table``.

    The record holds what :func:`load_criterion_table` parses from the CSV:
    ids ascending with the rows reordered to match, and the geometry tag as
    the header scan reads it.  A table that the CSV reader refuses gets
    none: no rows or levels, or repeated ids.
    """
    sidecar, ids, levels = _sidecar_path(path), table.element_ids, table.load_levels
    if sidecar is None or ids.size == 0 or np.unique(ids, return_counts=True)[0].size != ids.size:
        return
    with open(path, "r", encoding="utf-8") as fh:
        tag = read_header(fh, TABLE_HEADER)[0].get("geometry", "").encode("utf-8")
    order = np.argsort(ids, kind="stable")
    record = np.zeros((), _sidecar_dtype(ids.size, levels.size, len(tag)))
    record["sha256"] = _digest(path)
    record["geometry"] = np.frombuffer(tag, dtype=np.uint8)
    record["load_levels"] = levels
    for name in ("element_ids", "volumes", "delta_eps"):  # straight into the record: no reordered copies
        np.take(getattr(table, name), order, axis=0, out=record[name])
    with open(sidecar, "wb") as fh:
        np.save(fh, record, allow_pickle=False)


def read_sidecar(path):
    """The sidecar record of the criterion table CSV ``path``, or ``None``.

    ``x.criterion.csv``'s sidecar is ``x.criterion.npy``: one record of
    :func:`_sidecar_dtype` saved by ``np.save``.  It is used only when its
    layout is the expected one and it carries the SHA-256 of the CSV's exact
    bytes; a missing, stale, truncated, pickled or mis-shaped one is
    ``None``.  Without a sidecar file the CSV is not hashed.
    """
    sidecar = _sidecar_path(path)
    if sidecar is None or not sidecar.is_file():
        return None
    try:
        with open(sidecar, "rb") as fh:
            record = np.load(fh, allow_pickle=False)
        n, levels = record.dtype["delta_eps"].shape
        layout = _sidecar_dtype(n, levels, record.dtype["geometry"].shape[0])
        if record.shape == () and record.dtype == layout and record["sha256"] == _digest(path):
            return record
    except (OSError, EOFError, ValueError, KeyError, IndexError, AttributeError):  # not a sidecar of this layout
        pass
    return None


def load_criterion_table(path) -> CriterionTable:
    """Parse a long-format criterion table CSV; rows may come in any order.

    Every element must carry the same load levels, each once, and the same
    volume on every row.  A sidecar made from the CSV's exact bytes (see
    :func:`read_sidecar`) gives the same table without parsing the CSV.
    """
    record = read_sidecar(path)
    if record is not None:
        return CriterionTable(
            element_ids=record["element_ids"],
            volumes=record["volumes"],
            load_levels=record["load_levels"],
            delta_eps=record["delta_eps"],
            geometry_tag=record["geometry"].tobytes().decode("utf-8"),
        )
    tags, header_line, rows = _read_rows(path, _row_dtype(TABLE_HEADER, "element_id"))
    if rows.size == 0:
        raise FieldFormatError(path, 0, "criterion table has no rows")
    eid, level, delta, volume = (rows[name] for name in rows.dtype.names)
    eids, first, inverse, counts = np.unique(eid, return_index=True, return_inverse=True, return_counts=True)
    first_volume = volume[first][inverse]
    order = np.lexsort((level, eid))  # stable: a repeated pair sorts after its first row
    eid_sorted, grid = eid[order], level[order]
    repeated = np.zeros(rows.size, dtype=bool)
    repeated[order[1:]] = (eid_sorted[1:] == eid_sorted[:-1]) & (grid[1:] == grid[:-1])
    _check_rows(path, header_line, [
        (~(np.isfinite(level) & np.isfinite(delta) & np.isfinite(volume)),
         lambda i: f"non-finite value for element {eid[i]}"),
        (repeated, lambda i: f"repeated load level {level[i]} for element {eid[i]}"),
        (volume != first_volume,
         lambda i: f"volume {volume[i]} for element {eid[i]} differs from its first row's {first_volume[i]}"),
    ])
    if np.any(counts != counts[0]) or np.any(grid.reshape(eids.size, -1) != grid[: counts[0]]):
        raise FieldFormatError(path, 0, "elements carry inconsistent load-level grids")
    return CriterionTable(
        element_ids=eids,
        volumes=volume[first],
        load_levels=grid[: counts[0]].copy(),
        delta_eps=delta[order].reshape(eids.size, -1),
        geometry_tag=tags.get("geometry", ""),
    )
