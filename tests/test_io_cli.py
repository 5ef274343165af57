import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from spaceform_lab import cli as cli_module
from spaceform_lab import io as io_module
from spaceform_lab.cli import run
from spaceform_lab.errors import BadProjection, IoError, SchemaError
from spaceform_lab.grid import ParameterGrid
from spaceform_lab.io import (
    export_csv,
    export_obj,
    load_config,
    parse_config,
)

MINIMAL = {
    "seed": {"gallery": "problemstar_e1_Cneg", "C": -1.0},
    "grid": {"lo": [-1, -1, -1], "hi": [1, 1, 1], "n": [21, 21, 21],
             "base": [10, 10, 10]},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.tolerances["integrability"] == 1e-8
        assert cfg.tolerances["report"] == 1e-6
        assert cfg.grid.n == (21, 21, 21)

    @pytest.mark.parametrize("key, value", [("target", {"c": 1.0, "s": 0}),
                                            ("theta", 0.5), ("rng_seed", 0)])
    def test_removed_keys_rejected(self, tmp_path, key, value):
        # nothing read these top-level keys; the family carries theta
        doc = dict(MINIMAL, **{key: value})
        with pytest.raises(SchemaError):
            load_config(write_config(tmp_path, doc))

    def test_bad_type_pointer(self, tmp_path):
        doc = dict(MINIMAL)
        doc["ambient"] = {"c": "one", "s": 0}
        with pytest.raises(SchemaError) as err:
            load_config(write_config(tmp_path, doc))
        assert err.value.pointer == "/ambient/c"

    def test_exclusive_seed_forms(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["seed"]["triple"] = {"v": [1, 0, 0], "V": [0, 1, 0],
                                 "delta": [1, -1, 1]}
        with pytest.raises(SchemaError):
            load_config(write_config(tmp_path, doc))

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["sneaky"] = 1
        with pytest.raises(SchemaError):
            load_config(write_config(tmp_path, doc))

    def test_missing_file(self):
        with pytest.raises(IoError):
            load_config("/nonexistent/config.json")

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SchemaError):
            load_config(str(p))

    def test_nonfinite_grid_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["grid"]["lo"] = [-1, -1, -math.inf]
        with pytest.raises(SchemaError):
            parse_config(doc)

    @pytest.mark.parametrize("max_step", [0, -0.5, math.nan, math.inf])
    def test_max_step_positive_and_finite(self, max_step):
        doc = dict(MINIMAL, max_step=max_step)
        with pytest.raises(SchemaError) as err:
            parse_config(doc)
        assert err.value.pointer == "/max_step"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["integrability", "mask", "report"])
    def test_nonfinite_tolerance_rejected(self, key, value):
        doc = dict(MINIMAL, tolerances={key: value})
        with pytest.raises(SchemaError) as err:
            parse_config(doc)
        assert err.value.pointer == f"/tolerances/{key}"

    FINITE_STATE = {"gamma": [0.1, 0.0, 0.0], "vprime": [0.0, 0.0, 1.0],
                    "phi": 1.0, "beta": 0.0}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("pointer, extra", [
        ("/ambient/c", {"ambient": {"c": 0.0, "s": 0}}),
        ("/seed/C", {}),
        ("/seed/triple/v/1", {"seed": {"triple": {"v": [1.0, 0.0, 0.0], "V": [0.0, 1.0, 0.0],
                                                  "delta": [1, -1, 1]}}}),
        ("/ribaucour/family/theta",
         {"ribaucour": {"family": {"kind": "problemstar", "K": 1.0, "theta": 0.5}}}),
        ("/ribaucour/state/gamma/0", {"ribaucour": {"state": FINITE_STATE}}),
        ("/ribaucour/k2_target", {"ribaucour": {"state": FINITE_STATE, "k2_target": 1.0}}),
    ])
    def test_nonfinite_number_pointer(self, pointer, extra, value):
        doc = json.loads(json.dumps(dict(MINIMAL, **extra)))
        parse_config(doc)                           # valid while the number is finite
        *path, last = pointer[1:].split("/")
        node = doc
        for key in path:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[int(last) if isinstance(node, list) else last] = value
        with pytest.raises(SchemaError) as err:
            parse_config(doc)
        assert err.value.pointer == pointer


class TestExportCsv:
    def test_constant_field_rows(self, tmp_path):
        grid = ParameterGrid((0, 0, 0), (1, 1, 1), (2, 2, 2))
        field = np.broadcast_to(np.array([1.0, 2.0, 3.0, 4.0]),
                                (2, 2, 2, 4)).copy()
        path = tmp_path / "out.csv"
        export_csv(field, grid, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "u1,u2,u3,x1,x2,x3,x4"
        assert len(lines) == 1 + 8
        # identical value columns on every row
        assert all(l.endswith("1.0,2.0,3.0,4.0") for l in lines[1:])
        # first row carries the grid lower corner
        assert lines[1].startswith("0.0,0.0,0.0,")

    def test_fully_masked_header_only(self, tmp_path):
        grid = ParameterGrid((0, 0, 0), (1, 1, 1), (2, 2, 2))
        field = np.zeros((2, 2, 2, 3))
        path = tmp_path / "masked.csv"
        export_csv(field, grid, str(path), masked=np.ones((2, 2, 2), dtype=bool))
        lines = path.read_text().strip().split("\n")
        assert lines == ["u1,u2,u3,x1,x2,x3"]

    def test_full_precision_round_trip(self, tmp_path):
        grid = ParameterGrid((0, 0, 0), (1, 1, 1), (2, 2, 2))
        val = 0.1 + 0.2                              # classic 0.30000000000000004
        field = np.full((2, 2, 2, 1), val)
        path = tmp_path / "prec.csv"
        export_csv(field, grid, str(path))
        cell = path.read_text().strip().split("\n")[1].split(",")[-1]
        assert float(cell) == val

    def test_determinism(self, tmp_path):
        grid = ParameterGrid((0, 0, 0), (1, 1, 1), (3, 3, 3))
        rng = np.random.default_rng(3)
        field = rng.normal(size=(3, 3, 3, 2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(field, grid, str(p1))
        export_csv(field, grid, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def _per_node_csv(values, grid, masked=None):
    """The CSV text of ``export_csv`` formatted one node at a time."""
    values = np.asarray(values, dtype=float).reshape(tuple(grid.n) + (-1,))
    lines = ["u1,u2,u3," + ",".join(f"x{i + 1}" for i in range(values.shape[-1]))]
    pts = grid.points()
    for node in np.ndindex(*grid.n):
        if masked is None or not masked[node]:
            cells = list(pts[node]) + list(values[node])
            lines.append(",".join(repr(float(x)) for x in cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestExportCsvBytes:
    GRID = ParameterGrid((-1.0, 0.0, 0.25), (1.0, 0.3, 2.0), (3, 4, 5))
    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2)

    def _values(self, trailing):
        rng = np.random.default_rng(11)
        values = rng.normal(size=self.GRID.n + trailing) * 10.0 ** rng.integers(
            -8, 9, size=self.GRID.n + trailing)
        flat = values.reshape(-1)
        flat[[3 * k + 1 for k in range(len(self.SPECIAL))]] = self.SPECIAL
        return values

    @pytest.mark.parametrize("trailing", [(), (1,), (5,)])
    @pytest.mark.parametrize("partly_masked", [False, True])
    def test_matches_per_node_formatting(self, tmp_path, trailing, partly_masked):
        values = self._values(trailing)
        masked = None
        if partly_masked:
            masked = np.random.default_rng(5).uniform(size=self.GRID.n) < 0.3
            masked[0] = False
            masked[-1] = True
        path = tmp_path / "out.csv"
        export_csv(values, self.GRID, str(path), masked)
        assert path.read_bytes() == _per_node_csv(values, self.GRID, masked)

    @pytest.mark.parametrize("slab", [0, 1, 2])
    def test_fully_masked_slab(self, tmp_path, slab):
        values = self._values((4,))
        masked = np.zeros(self.GRID.n, dtype=bool)
        masked[slab] = True
        path = tmp_path / "out.csv"
        export_csv(values, self.GRID, str(path), masked)
        assert path.read_bytes() == _per_node_csv(values, self.GRID, masked)

    @pytest.mark.parametrize("slab", [0, 1, 2])
    def test_slab_keeps_only_last_row(self, tmp_path, slab):
        values = self._values((2,))
        masked = np.zeros(self.GRID.n, dtype=bool)
        masked[slab] = True
        masked[slab, -1, -1] = False
        path = tmp_path / "out.csv"
        export_csv(values, self.GRID, str(path), masked)
        assert path.read_bytes() == _per_node_csv(values, self.GRID, masked)


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
class TestExportCsvSplit:
    """Above ``io._SPLIT_ROWS`` kept rows on more than one CPU, a forked child
    formats the upper slabs; both ways write the bytes of ``_per_node_csv``,
    leave no child process and print nothing."""

    GRID = ParameterGrid((-1.0, 0.0, 0.25), (1.0, 0.3, 2.0), (8, 4, 5))

    def _values(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=self.GRID.n + (3,)) * 10.0 ** rng.integers(
            -8, 9, size=self.GRID.n + (3,))
        special = TestExportCsvBytes.SPECIAL
        values.reshape(-1)[[11 * k + 2 for k in range(len(special))]] = special
        values[-1].reshape(-1)[:len(special)] = special      # and in the child's slabs
        return values

    @pytest.fixture
    def forks(self, monkeypatch):
        """Force the split on two CPUs; collect the pid of every fork."""
        pids = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(io_module, "_SPLIT_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", counted)
        return pids

    @staticmethod
    def _mask(kind):
        n = TestExportCsvSplit.GRID.n
        if kind == "none":
            return None
        if kind == "random":
            return np.random.default_rng(7).uniform(size=n) < 0.3
        masked = np.zeros(n, dtype=bool)
        if kind == "upper_half":
            masked[n[0] // 2:] = True
        else:                               # only the slab the kept rows split in
            masked[:] = True
            masked[5] = False
        return masked

    @staticmethod
    def _assert_quiet_and_reaped(capfd):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("mask", ["none", "random", "upper_half", "split_slab"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_both_paths_match_per_node(self, tmp_path, forks, monkeypatch, capfd, mask, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        values, masked = self._values(), self._mask(mask)
        path = tmp_path / "out.csv"
        export_csv(values, self.GRID, str(path), masked)
        assert path.read_bytes() == _per_node_csv(values, self.GRID, masked)
        assert len(forks) == (cpus == 2)
        self._assert_quiet_and_reaped(capfd)

    def test_without_fork_one_process_writes(self, tmp_path, forks, monkeypatch, capfd):
        monkeypatch.delattr(os, "fork")
        values = self._values()
        path = tmp_path / "out.csv"
        export_csv(values, self.GRID, str(path))
        assert path.read_bytes() == _per_node_csv(values, self.GRID)
        assert forks == []
        self._assert_quiet_and_reaped(capfd)

    def test_below_the_threshold_one_process_writes(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(io_module, "_SPLIT_ROWS", int(np.prod(self.GRID.n)) + 1)
        values = self._values()
        path = tmp_path / "out.csv"
        export_csv(values, self.GRID, str(path))
        assert path.read_bytes() == _per_node_csv(values, self.GRID)
        assert forks == []

    def test_beside_another_thread_one_process_writes(self, tmp_path, forks):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(10.0,))
        waiter.start()
        try:
            values = self._values()
            path = tmp_path / "out.csv"
            export_csv(values, self.GRID, str(path))
        finally:
            release.set()
            waiter.join(10.0)
        assert not waiter.is_alive()
        assert path.read_bytes() == _per_node_csv(values, self.GRID)
        assert forks == []

    @pytest.mark.parametrize("mask, own", [("none", [0, 1, 2, 3]), ("upper_half", [0, 1])])
    def test_parent_formats_slabs_up_to_half_the_rows(self, tmp_path, forks, monkeypatch,
                                                      mask, own):
        parent, slab_text, formatted = os.getpid(), io_module._slab_text, []

        def recorded(table, i):
            if os.getpid() == parent:
                formatted.append(i)
            return slab_text(table, i)

        monkeypatch.setattr(io_module, "_slab_text", recorded)
        export_csv(self._values(), self.GRID, str(tmp_path / "out.csv"), self._mask(mask))
        assert formatted == own

    def test_failed_fork_raises_io_error(self, tmp_path, forks, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        pipes, pipe = [], os.pipe
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
        with pytest.raises(IoError, match="Resource temporarily unavailable"):
            export_csv(self._values(), self.GRID, str(tmp_path / "out.csv"))
        for fd in pipes[0]:                                     # both ends are closed
            with pytest.raises(OSError):
                os.fstat(fd)

    def _fail_in(self, monkeypatch, child):
        parent, slab_text = os.getpid(), io_module._slab_text

        def failing(table, i):
            if (os.getpid() != parent) == child:
                raise RuntimeError("formatting failed")
            return slab_text(table, i)

        monkeypatch.setattr(io_module, "_slab_text", failing)

    def test_child_failure_raises_io_error(self, tmp_path, forks, monkeypatch, capfd):
        self._fail_in(monkeypatch, child=True)
        with pytest.raises(IoError, match="exited with code 1"):
            export_csv(self._values(), self.GRID, str(tmp_path / "out.csv"))
        assert len(forks) == 1
        self._assert_quiet_and_reaped(capfd)

    def test_parent_failure_kills_the_child(self, tmp_path, forks, monkeypatch, capfd):
        self._fail_in(monkeypatch, child=False)
        with pytest.raises(RuntimeError, match="formatting failed"):
            export_csv(self._values(), self.GRID, str(tmp_path / "out.csv"))
        assert len(forks) == 1
        self._assert_quiet_and_reaped(capfd)


class TestMaskShape:
    GRID = ParameterGrid((0, 0, 0), (1, 1, 1), (3, 3, 3))

    @pytest.mark.parametrize("n", [2, 4])
    def test_export_csv_rejects(self, tmp_path, n):
        with pytest.raises(IoError, match=rf"\({n}, {n}, {n}\).*\(3, 3, 3\)"):
            export_csv(np.zeros((3, 3, 3, 2)), self.GRID, str(tmp_path / "x.csv"),
                       masked=np.zeros((n, n, n), dtype=bool))

    @pytest.mark.parametrize("n", [2, 4])
    def test_export_obj_rejects(self, tmp_path, n):
        with pytest.raises(IoError, match=rf"\({n}, {n}, {n}\).*\(3, 3, 3\)"):
            export_obj(self.GRID.points(), self.GRID, 2, 0.0, (0, 1, 2),
                       str(tmp_path / "x.obj"), masked=np.zeros((n, n, n), dtype=bool))


class TestExportObj:
    def _grid(self):
        return ParameterGrid((0, 0, 0), (1, 1, 1), (2, 2, 2))

    def test_quad_split_into_triangles(self, tmp_path):
        grid = self._grid()
        pos = grid.points().repeat(1, axis=-1)
        pos = np.concatenate([grid.points(), np.zeros(grid.n + (1,))], axis=-1)
        path = tmp_path / "mesh.obj"
        export_obj(pos, grid, 2, 0.0, (0, 1, 2), str(path))
        lines = path.read_text().strip().split("\n")
        assert sum(1 for l in lines if l.startswith("v ")) == 4
        assert sum(1 for l in lines if l.startswith("f ")) == 2

    def test_masked_corner_drops_faces(self, tmp_path):
        grid = self._grid()
        pos = np.concatenate([grid.points(), np.zeros(grid.n + (1,))], axis=-1)
        masked = np.zeros(grid.n, dtype=bool)
        masked[0, 0, :] = True
        path = tmp_path / "masked.obj"
        export_obj(pos, grid, 2, 0.0, (0, 1, 2), str(path), masked=masked)
        lines = path.read_text().strip().split("\n")
        assert sum(1 for l in lines if l.startswith("v ")) == 3
        assert sum(1 for l in lines if l.startswith("f ")) == 0

    @pytest.mark.parametrize("projection", [(0, 1, 1), (4, -1, 0), (0, 1, 9)],
                             ids=["repeated", "negative", "past_dim"])
    def test_bad_projection(self, tmp_path, projection):
        grid = self._grid()
        pos = np.concatenate([grid.points(), np.zeros(grid.n + (2,))], axis=-1)
        with pytest.raises(BadProjection):
            export_obj(pos, grid, 2, 0.0, projection, str(tmp_path / "x.obj"))


def _per_node_obj(positions, grid, axis, value, projection, masked=None):
    """The OBJ text of ``export_obj`` formatted one node and one quad at a time."""
    index = [slice(None)] * 3
    index[axis] = int(np.argmin(np.abs(grid.axis(axis) - value)))
    sheet = positions[tuple(index)]
    ok = np.isfinite(sheet).all(axis=-1)
    if masked is not None:
        ok &= ~masked[tuple(index)]
    n1, n2 = sheet.shape[:2]
    vid = np.zeros((n1, n2), dtype=int)
    lines = []
    count = 0
    for i in range(n1):
        for j in range(n2):
            if ok[i, j]:
                count += 1
                vid[i, j] = count
                lines.append("v " + " ".join(repr(float(sheet[i, j, p])) for p in projection))
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            a, b, c, d = vid[i, j], vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1]
            if min(a, b, c, d) > 0:
                lines += [f"f {a} {b} {c}", f"f {a} {c} {d}"]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


class TestExportObjBytes:
    GRID = ParameterGrid((-1.0, 0.0, 0.25), (1.0, 0.3, 2.0), (4, 5, 6))
    SPECIAL = (math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2)

    def _positions(self, grid, dim=5, nan_node=None):
        rng = np.random.default_rng(17)
        pos = rng.normal(size=grid.n + (dim,)) * 10.0 ** rng.integers(
            -8, 9, size=grid.n + (dim,))
        flat = pos.reshape(-1)
        flat[[7 * k + 2 for k in range(len(self.SPECIAL))]] = self.SPECIAL
        if nan_node is not None:
            pos[nan_node + (1,)] = math.nan
        return pos

    def _check(self, tmp_path, grid, pos, axis, value, projection, masked=None):
        path = tmp_path / "mesh.obj"
        export_obj(pos, grid, axis, value, projection, str(path), masked=masked)
        expect = _per_node_obj(pos, grid, axis, value, projection, masked)
        assert path.read_bytes() == expect
        return expect

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("projection", [(0, 1, 2), (3, 0, 4), (2, 1, 0)])
    def test_unmasked(self, tmp_path, axis, projection):
        grid = self.GRID
        pos = self._positions(grid)
        mid = grid.axis(axis)[grid.n[axis] // 2] + 1e-3
        self._check(tmp_path, grid, pos, axis, mid, projection)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_masked_corner(self, tmp_path, axis):
        grid = self.GRID
        masked = np.zeros(grid.n, dtype=bool)
        masked[0, 0, 0] = masked[-1, -1, -1] = True
        masked[-1, 0, -1] = True
        for value in (grid.lo[axis], grid.hi[axis]):
            self._check(tmp_path, grid, self._positions(grid), axis, value, (4, 1, 3),
                        masked)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_nan_node(self, tmp_path, axis):
        grid = self.GRID
        pos = self._positions(grid, nan_node=(2, 3, 4))
        expect = self._check(tmp_path, grid, pos, axis, grid.axis(axis)[(2, 3, 4)[axis]],
                             (0, 1, 2))
        assert b"nan" not in expect

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_interior_hole(self, tmp_path, axis):
        grid = ParameterGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (6, 7, 8))
        masked = np.zeros(grid.n, dtype=bool)
        masked[2:4, 3:5, 3:5] = True
        expect = self._check(tmp_path, grid, self._positions(grid), axis,
                             grid.axis(axis)[3], (1, 2, 3), masked)
        assert expect.count(b"\nf ") > 0

    def test_fully_masked_sheet_is_empty(self, tmp_path):
        grid = self.GRID
        masked = np.zeros(grid.n, dtype=bool)
        masked[:, :, 0] = True
        assert self._check(tmp_path, grid, self._positions(grid), 2, grid.lo[2],
                           (0, 1, 2), masked) == b""

    @pytest.mark.parametrize("n, axis", [((2, 5, 3), 2), ((4, 2, 6), 0), ((2, 3, 2), 1)])
    def test_two_by_n_sheet(self, tmp_path, n, axis):
        grid = ParameterGrid((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), n)
        masked = np.zeros(grid.n, dtype=bool)
        masked[(0,) * 3] = True
        for mask in (None, masked):
            self._check(tmp_path, grid, self._positions(grid, dim=4), axis, 0.4,
                        (2, 0, 3), mask)


RIBAUCOUR_DOC = {
    "seed": {"gallery": "problemstar_e1_Cneg", "C": -1.0},
    "ambient": {"c": 0.0, "s": 0},
    "grid": {"lo": [-0.5, -0.5, -0.5], "hi": [0.5, 0.5, 0.5], "n": [11, 11, 11],
             "base": [5, 5, 5]},
    "ribaucour": {"family": {"kind": "problemstar", "K": 1.0, "a": 1.0,
                             "rho": 1.0, "theta": 0.7853981633974483}},
}


class TestCli:
    def test_verify_triple_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert run(["verify-triple", "--config", cfg]) == 0

    def test_unknown_subcommand_exit_one(self, capsys):
        assert run(["rotate-everything"]) == 1

    def test_no_subcommand_exit_one(self):
        assert run([]) == 1

    def test_config_error_exit_one(self, tmp_path):
        doc = dict(MINIMAL)
        doc["ambient"] = {"c": "one", "s": 0}
        cfg = write_config(tmp_path, doc)
        assert run(["verify-triple", "--config", cfg]) == 1

    def test_zero_max_step_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MINIMAL, max_step=0))
        assert run(["integrate-frame", "--config", cfg]) == 1
        assert "/max_step" in capsys.readouterr().err

    def test_ribaucour_pipeline_and_reports(self, tmp_path):
        doc = json.loads(json.dumps(RIBAUCOUR_DOC))
        doc["outputs"] = {"report": str(tmp_path / "rep.json"),
                          "csv": str(tmp_path / "fprime.csv")}
        cfg = write_config(tmp_path, doc)
        assert run(["ribaucour", "--config", cfg]) == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["invariant_drift"]["K1"] <= 1e-8
        assert rep["transformed_classification"]["kind"] == "ProblemStar"
        assert (tmp_path / "fprime.csv").exists()

    def test_threshold_violation_exit_two_report_written(self, tmp_path):
        doc = json.loads(json.dumps(RIBAUCOUR_DOC))
        doc["tolerances"] = {"report": 1e-30}
        doc["outputs"] = {"report": str(tmp_path / "rep.json")}
        cfg = write_config(tmp_path, doc)
        assert run(["ribaucour", "--config", cfg]) == 2
        assert (tmp_path / "rep.json").exists()

    def test_integrate_frame(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["grid"]["n"] = [9, 9, 9]
        doc["grid"]["base"] = [4, 4, 4]
        doc["outputs"] = {"csv": str(tmp_path / "f.csv")}
        cfg = write_config(tmp_path, doc)
        assert run(["integrate-frame", "--config", cfg]) == 0
        assert (tmp_path / "f.csv").exists()

    def test_cflat_check(self, tmp_path):
        doc = {
            "seed": {"gallery": "cflat"},
            "ambient": {"c": 0.0, "s": 0},
            "grid": {"lo": [-0.3, -0.3, -0.3], "hi": [0.3, 0.3, 0.3],
                     "n": [9, 9, 9], "base": [4, 4, 4]},
            "ribaucour": {"family": {"kind": "cflat", "K": -1.0, "rho": 1.0,
                                     "theta": 0.7853981633974483}},
            "tolerances": {"report": 1e-6},
        }
        cfg = write_config(tmp_path, doc)
        assert run(["cflat-check", "--config", cfg]) == 0

    def test_pair_check(self, tmp_path):
        doc = json.loads(json.dumps(RIBAUCOUR_DOC))
        doc["grid"] = {"lo": [0.095, 0.395, 0.195], "hi": [0.105, 0.405, 0.205],
                       "n": [11, 11, 11], "base": [5, 5, 5]}
        doc["tolerances"] = {"report": 1e-5}
        doc["outputs"] = {"report": str(tmp_path / "pair.json")}
        cfg = write_config(tmp_path, doc)
        assert run(["pair-check", "--config", cfg]) == 0
        rep = json.loads((tmp_path / "pair.json").read_text())
        assert rep["sphere_constraint_max"] <= 1e-8
        assert len(rep["printed_s4_component_match"]) == 5

    def test_pair_check_forms_once_per_sample(self, tmp_path, monkeypatch):
        # the forms feed holonomic_data and the pair-Gauss mask, so each sample's
        # are computed once
        from spaceform_lab import cli, verify

        samples = []

        def counted(sample, _inner=verify.fundamental_forms):
            samples.append(sample)
            return _inner(sample)

        monkeypatch.setattr(cli, "fundamental_forms", counted)
        monkeypatch.setattr(verify, "fundamental_forms", counted)
        doc = json.loads(json.dumps(RIBAUCOUR_DOC))
        doc["grid"] = {"lo": [0.095, 0.395, 0.195], "hi": [0.105, 0.405, 0.205],
                       "n": [11, 11, 11], "base": [5, 5, 5]}
        doc["tolerances"] = {"report": 1e-5}
        assert run(["pair-check", "--config", write_config(tmp_path, doc)]) == 0
        assert len(samples) == 2
        assert [s.spec.c for s in samples] == [0.0, 1.0]

    def test_pair_check_metric_once_per_sample(self, tmp_path, monkeypatch):
        # isometry_check takes the metric and kept nodes from the forms
        from spaceform_lab import verify

        samples = []

        def counted(sample, _inner=verify._metric):
            samples.append(sample)
            return _inner(sample)

        monkeypatch.setattr(verify, "_metric", counted)
        doc = json.loads(json.dumps(RIBAUCOUR_DOC))
        doc["grid"] = {"lo": [0.095, 0.395, 0.195], "hi": [0.105, 0.405, 0.205],
                       "n": [11, 11, 11], "base": [5, 5, 5]}
        doc["tolerances"] = {"report": 1e-5}
        assert run(["pair-check", "--config", write_config(tmp_path, doc)]) == 0
        assert [s.spec.c for s in samples] == [0.0, 1.0]

    def test_pair_check_non_holonomic_sample(self, tmp_path, capsys):
        # on [-1,1]^3 the sampled metric is not diagonal within holonomic_data's
        # tolerance: a numerical verdict, so exit 2 with the report written
        doc = json.loads((DEMO_CONFIGS / "pipeline62.json").read_text())
        doc["grid"]["n"] = [9, 9, 9]
        doc["grid"]["base"] = [4, 4, 4]
        doc["outputs"] = {"report": str(tmp_path / "pair.json")}
        assert run(["pair-check", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == ""
        rep = json.loads((tmp_path / "pair.json").read_text())
        assert list(rep) == ["isometry", "pair_gauss", "printed_s4_component_match",
                             "sphere_constraint_max"]
        assert rep["pair_gauss"] == {
            "error": "metric off-diagonal is 4.22e-02 of the diagonal scale"}
        assert math.isfinite(rep["isometry"]["entries"]["metric_difference"]["max"])

    def test_export_obj_and_csv(self, tmp_path):
        doc = json.loads(json.dumps(RIBAUCOUR_DOC))
        doc["outputs"] = {"csv": str(tmp_path / "out.csv"),
                          "obj": str(tmp_path / "out.obj")}
        cfg = write_config(tmp_path, doc)
        assert run(["export", "--config", cfg]) == 0
        obj = (tmp_path / "out.obj").read_text()
        assert obj.startswith("v ")
        assert " f " not in obj.split("\n")[0]

    def test_export_determinism(self, tmp_path):
        doc = json.loads(json.dumps(RIBAUCOUR_DOC))
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        doc["outputs"] = {"csv": str(out1)}
        cfg1 = write_config(tmp_path, doc, "c1.json")
        doc["outputs"] = {"csv": str(out2)}
        cfg2 = write_config(tmp_path, doc, "c2.json")
        assert run(["export", "--config", cfg1]) == 0
        assert run(["export", "--config", cfg2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_gallery_list_and_eval(self, capsys):
        assert run(["gallery", "list"]) == 0
        out = capsys.readouterr().out
        assert "cflat_K_minus1" in out
        assert run(["gallery", "eval", "--name", "cflat_K_minus1",
                    "--at", "0,0,0"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "(0.0, 0.0, 0.0, 0.0)"

    def test_gallery_eval_seed(self, capsys):
        assert run(["gallery", "eval", "--name", "problemstar_e1_Cneg"]) == 0
        out = capsys.readouterr().out
        assert "delta = (1, -1, 1)" in out

    @pytest.mark.parametrize("extra, message", [
        (["--at", "a,b,c"], "--at needs three finite"),
        (["--at", "1,2,nan"], "--at needs three finite"),
        (["--at", "1,2,inf"], "--at needs three finite"),
        (["--theta", "nan"], "--theta must be finite"),
    ], ids=["not_numbers", "nan_at", "inf_at", "nan_theta"])
    def test_gallery_eval_bad_numbers(self, extra, message, capsys):
        assert run(["gallery", "eval", "--name", "r4_pair"] + extra) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_gallery_unknown_item(self):
        assert run(["gallery", "eval", "--name", "nonsense"]) == 1

    def test_inline_triple_seed(self, tmp_path):
        doc = {
            "seed": {"triple": {"v": [0, 1, 1], "V": [1, 0, 0],
                                "delta": [1, -1, 1]}},
            "ambient": {"c": 0.0, "s": 0},
            "grid": {"lo": [-1, -1, -1], "hi": [1, 1, 1], "n": [9, 9, 9],
                     "base": [4, 4, 4]},
        }
        cfg = write_config(tmp_path, doc)
        assert run(["verify-triple", "--config", cfg]) == 0

    def test_raw_state_ribaucour(self, tmp_path):
        doc = {
            "seed": {"gallery": "problemstar_e1_Cneg", "C": -1.0},
            "ambient": {"c": 0.0, "s": 0},
            "grid": {"lo": [-0.4, -0.4, -0.4], "hi": [0.4, 0.4, 0.4],
                     "n": [9, 9, 9], "base": [4, 4, 4]},
            "ribaucour": {"state": {"gamma": [0.0, -1.4142135623730951, 0.0],
                                    "vprime": [0.0, 0.0, -1.0],
                                    "phi": 1.0, "beta": 0.0},
                          "k2_target": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        assert run(["ribaucour", "--config", cfg]) == 0


class TestConfigRoundTrip:
    def test_triple_to_config_round_trip(self):
        from spaceform_lab.ambient import SpaceFormSpec
        from spaceform_lab.io import triple_to_config
        from spaceform_lab.triples import TripleField

        grid = ParameterGrid.centered(1.0, 5)
        t = TripleField.constant(grid, (1, -1, 1), SpaceFormSpec(0.0, 0),
                                 v=(0, 1, 1), V=(1, 0, 0))
        doc = triple_to_config(t)
        cfg = parse_config(doc)
        assert cfg.seed["triple"]["v"] == [0, 1, 1]
        assert cfg.grid.same_as(grid)

    def test_nonconstant_rejected(self):
        from spaceform_lab.ambient import SpaceFormSpec
        from spaceform_lab.io import triple_to_config
        from spaceform_lab.triples import TripleField

        grid = ParameterGrid.centered(1.0, 5)
        U1 = grid.meshes()[0]
        v = np.stack([1 + 0.1 * U1, np.ones(grid.n), np.ones(grid.n)])
        t = TripleField.from_samples(grid, (1, -1, 1), SpaceFormSpec(0.0, 0),
                                     v, np.zeros((3, 3) + grid.n),
                                     np.zeros((3,) + grid.n))
        with pytest.raises(IoError):
            triple_to_config(t)

    def test_schema_document_is_valid_json_schema(self, tmp_path):
        import jsonschema

        from spaceform_lab.io import CONFIG_SCHEMA, dump_schema

        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
        out = tmp_path / "schema.json"
        dump_schema(str(out))
        assert json.loads(out.read_text())["type"] == "object"

    def test_shipped_schema_matches_config_schema(self):
        from spaceform_lab.io import CONFIG_SCHEMA

        path = Path(__file__).resolve().parents[1] / "docs" / "config_schema.json"
        assert json.loads(path.read_text(encoding="utf-8")) == CONFIG_SCHEMA


def test_cli_import_loads_no_scipy():
    """Importing the CLI loads neither scipy nor jsonschema: the config
    validator imports jsonschema when it first validates a document."""
    code = ("import sys, spaceform_lab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _raw_state_doc(tmp_path):
    return {
        "seed": {"gallery": "problemstar_e1_Cneg", "C": -1.0},
        "ambient": {"c": 0.0, "s": 0},
        "grid": {"lo": [-0.4, -0.4, -0.4], "hi": [0.4, 0.4, 0.4],
                 "n": [9, 9, 9], "base": [4, 4, 4]},
        "ribaucour": {"state": {"gamma": [0.0, -1.4142135623730951, 0.0],
                                "vprime": [0.0, 0.0, -1.0],
                                "phi": 1.0, "beta": 0.0}},
        "outputs": {"report": str(tmp_path / "rep.json")},
    }


def test_raw_state_k2_target_from_classification(tmp_path):
    # no explicit k2_target: the ProblemStar seed fixes it at eps_hat = 1
    cfg = write_config(tmp_path, _raw_state_doc(tmp_path))
    assert run(["ribaucour", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["invariant_drift"]["K2"] <= 1e-8


def test_raw_state_psi_rejected(tmp_path, capsys):
    # seed_state forces psi from K1 = 0, so a requested psi would be ignored
    doc = _raw_state_doc(tmp_path)
    doc["ribaucour"]["state"]["psi"] = 0.5
    with pytest.raises(SchemaError) as err:
        parse_config(doc)
    assert err.value.pointer == "/ribaucour/state"
    assert run(["ribaucour", "--config", write_config(tmp_path, doc)]) == 1
    assert "psi" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_k2_target_beside_family_rejected(tmp_path, capsys):
    # a family fixes its own K2 target: ribaucour.k2_target would be ignored
    doc = _raw_state_doc(tmp_path)
    doc["ribaucour"] = {"family": {"kind": "problemstar", "K": 1.0, "a": 1.0},
                        "k2_target": 1.0}
    with pytest.raises(SchemaError) as err:
        parse_config(doc)
    assert err.value.pointer == "/ribaucour"
    assert run(["ribaucour", "--config", write_config(tmp_path, doc)]) == 1
    assert "k2_target" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_seed_C_beside_triple_rejected(tmp_path, capsys):
    # C selects the member of a gallery seed: an inline triple would ignore it
    doc = _raw_state_doc(tmp_path)
    doc["seed"] = {"triple": {"v": [0, 1, 1], "V": [1, 0, 0], "delta": [1, -1, 1]},
                   "C": -1.0}
    with pytest.raises(SchemaError) as err:
        parse_config(doc)
    assert err.value.pointer == "/seed"
    assert run(["verify-triple", "--config", write_config(tmp_path, doc)]) == 1
    assert "'C'" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("cmd", ["verify-triple", "integrate-frame", "ribaucour",
                                 "pair-check", "export"])
@pytest.mark.parametrize("seed", [
    {"gallery": "problemstar_e1_Cpos", "C": 1.0},           # another gallery seed
    {"gallery": "problemstar_e1_Cneg", "C": -2.0},          # another C
    {"triple": {"v": [1, 0, 0], "V": [0, 1, 0], "delta": [1, -1, 1]}},
], ids=["gallery", "C", "triple"])
def test_seed_beside_family_must_be_its_own(tmp_path, capsys, cmd, seed):
    # the family builds its own seed: any other seed would be checked by some
    # subcommands and ignored by the ones that transform
    doc = json.loads(json.dumps(RIBAUCOUR_DOC))
    doc["seed"] = seed
    doc["outputs"] = {"report": str(tmp_path / "rep.json"), "csv": str(tmp_path / "f.csv")}
    cfg = write_config(tmp_path, doc)
    with pytest.raises(SchemaError) as err:
        cli_module._family(load_config(cfg))
    assert err.value.pointer == "/seed"
    assert run([cmd, "--config", cfg]) == 1
    assert "(at /seed)" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists() and not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("cmd, pointer, edit", [
    # NaN curvature: 3.iii reads NaN, and the report used to pass it
    ("verify-triple", "/ambient/c", lambda doc: doc["ambient"].update(c=math.nan)),
    ("ribaucour", "/ribaucour/family", lambda doc: doc["ribaucour"]["family"].pop("K")),
], ids=["nan_c", "family_without_K"])
def test_config_rejected_at_pointer(tmp_path, capsys, cmd, pointer, edit):
    doc = json.loads(json.dumps(RIBAUCOUR_DOC))
    doc["outputs"] = {"report": str(tmp_path / "rep.json")}
    edit(doc)
    assert run([cmd, "--config", write_config(tmp_path, doc)]) == 1
    assert f"(at {pointer})" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("seed, ambient, family, key", [
    # only the Problem-* seeds have a C, and only problemstar reads a
    ({"gallery": "cflat", "C": 7.0}, {"c": 0.0}, None, "C"),
    ({"gallery": "cflat"}, {"c": 0.0}, {"kind": "cflat", "K": -1.0, "a": 5.0}, "a"),
    ({"gallery": "problemstar_e1_Cpos", "C": 1.0}, {"c": 1.0},
     {"kind": "problemstar_sphere", "K": -2.0, "a": 1.0}, "a"),
], ids=["cflat_seed_C", "cflat_family_a", "sphere_family_a"])
def test_key_the_kind_does_not_read_rejected(tmp_path, capsys, seed, ambient, family, key):
    doc = {"seed": seed, "ambient": ambient, "grid": RIBAUCOUR_DOC["grid"],
           "outputs": {"report": str(tmp_path / "rep.json")}}
    if family is not None:
        doc["ribaucour"] = {"family": family}
    assert run(["verify-triple", "--config", write_config(tmp_path, doc)]) == 1
    assert f"takes no {key}" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()
    (family or seed).pop(key)                   # the same config without the key runs
    assert run(["verify-triple", "--config", write_config(tmp_path, doc)]) == 0


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


class TestSweepCount:
    """Each subcommand integrates each field once, and only what it reports.
    F' needs the frame and the Ribaucour field of one seed: they share a sweep."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        from spaceform_lab import frames, ribaucour

        calls = []
        names = {frames._frame_body: "frame", ribaucour._ribaucour_body: "ribaucour"}
        for module in (frames, ribaucour):
            def counted(triple, grid, order, systems, *args,
                        _inner=module.sweep_integrate, **kwargs):
                # the systems a sweep carries, told apart by their bodies; a
                # sweep that refuses its triple raises and is not counted
                out = _inner(triple, grid, order, systems, *args, **kwargs)
                calls.append("+".join(names[body] for body, _ in systems))
                return out

            monkeypatch.setattr(module, "sweep_integrate", counted)
        return calls

    SYSTEMS = {
        "verify-triple": [],
        "integrate-frame": ["frame", "frame"],      # the frame and its reversed sweep
        "ribaucour": ["ribaucour+frame"],
        "pair-check": ["ribaucour+frame", "ribaucour+frame"],     # R^4, then S^4
        "cflat-check": ["ribaucour"],
        "export": ["ribaucour+frame"],
    }

    # pair-check exits 2 at 9^3: its pair-Gauss residual misses the 1e-5 gate
    @pytest.mark.parametrize("cmd, config, outputs, code, expected", [
        ("verify-triple", "seed62", (), 0, 0),
        ("integrate-frame", "seed62", (), 0, 2),
        ("ribaucour", "pipeline62", ("csv", "obj"), 0, 1),
        ("pair-check", "pair62", (), 2, 2),
        ("cflat-check", "cflat", (), 0, 1),
        ("export", "pipeline62", ("csv",), 0, 1),
    ])
    def test_demo_config_at_9(self, tmp_path, sweeps, cmd, config, outputs, code,
                              expected):
        doc = json.loads((DEMO_CONFIGS / f"{config}.json").read_text())
        doc["grid"]["n"] = [9, 9, 9]
        doc["grid"]["base"] = [4, 4, 4]
        doc["outputs"] = {k: str(tmp_path / f"out.{k}") for k in outputs}
        assert run([cmd, "--config", write_config(tmp_path, doc)]) == code
        assert len(sweeps) == expected
        assert sweeps == self.SYSTEMS[cmd]
        for k in outputs:
            assert (tmp_path / f"out.{k}").stat().st_size > 0

    def test_non_integrable_seed_fails_without_outputs(self, tmp_path, sweeps, capsys):
        # V = (1, 0.5, 0.2) leaves 0.5 in equation (3.iii); no frame is asked
        # for, so the Ribaucour sweep must refuse the seed on its own
        doc = {
            "seed": {"triple": {"v": [0, 1, 1], "V": [1, 0.5, 0.2],
                                "delta": [1, -1, 1]}},
            "ambient": {"c": 0.0, "s": 0},
            "grid": {"lo": [-1, -1, -1], "hi": [1, 1, 1], "n": [9, 9, 9],
                     "base": [4, 4, 4]},
            "ribaucour": {"state": {"gamma": [0.5, 0.0, 0.0], "vprime": [0.0, 0.0, 1.0],
                                    "phi": 1.0, "beta": 0.0},
                          "k2_target": 1.0},
        }
        assert run(["ribaucour", "--config", write_config(tmp_path, doc)]) == 1
        assert "seed residual 5.000e-01 exceeds 1.0e-08" in capsys.readouterr().err
        assert sweeps == []

    def test_nan_integrability_tolerance_fails_before_sweeps(self, tmp_path, sweeps, capsys):
        # a NaN tolerance would make "residual > tol" false and let the
        # non-integrable seed through
        doc = {
            "seed": {"triple": {"v": [0, 1, 1], "V": [1, 0.5, 0.2],
                                "delta": [1, -1, 1]}},
            "ambient": {"c": 0.0, "s": 0},
            "grid": {"lo": [-1, -1, -1], "hi": [1, 1, 1], "n": [9, 9, 9],
                     "base": [4, 4, 4]},
            "tolerances": {"integrability": math.nan},
        }
        assert run(["integrate-frame", "--config", write_config(tmp_path, doc)]) == 1
        assert "/tolerances/integrability" in capsys.readouterr().err
        assert sweeps == []
