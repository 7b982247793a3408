"""The beamforming cone templates, built as sorted COO entries, against the
dense loop-built reference they replaced; and the rule that programs on the
dense Newton path never load scipy.sparse."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import desk_instance, random_channels
from cran_maxmin.beamforming import _BeamProblem
from cran_maxmin.model import AssociationMap


def reference_template(prob, margin):
    """(G, h, tail_rows, noise_rows, dims) of the margin (or power) program
    at gamma = 1, filled densely row by row."""
    K, N, M = prob.K, prob.N, prob.M
    pairs = list(zip(prob.pk.tolist(), prob.pn.tolist()))
    col = {pair: 1 + 2 * M * i for i, pair in enumerate(pairs)}
    serving = [sorted(n for (j, n) in pairs if j == k) for k in range(K)]
    by_rrh = [sorted(k for (k, j) in pairs if j == n) for n in range(N)]
    dims = []
    nrows = K * (2 + 2 * (K - 1))
    for n in range(N):
        if by_rrh[n]:
            nrows += 1 + 2 * M * len(by_rrh[n])
    if not margin:
        nrows += 1 + 2 * M * len(pairs)
    G = np.zeros((nrows, prob.nx))
    h = np.zeros(nrows)
    tail_rows, noise_rows = [], []

    r = 0
    for k in range(K):
        head = r
        for n in serving[k]:
            off = col[(k, n)]
            hv = prob.hs[k, n]
            G[head, off:off + M] = -hv.real
            G[head, off + M:off + 2 * M] = -hv.imag
        if margin:
            G[head, 0] = 1.0
        r += 1
        for j in range(K):
            if j == k:
                continue
            for n in serving[j]:
                off = col[(j, n)]
                hv = prob.hs[k, n]
                G[r, off:off + M] = -hv.real
                G[r, off + M:off + 2 * M] = -hv.imag
                G[r + 1, off:off + M] = hv.imag
                G[r + 1, off + M:off + 2 * M] = -hv.real
            tail_rows.extend((r, r + 1))
            r += 2
        h[r] = 1.0
        noise_rows.append(r)
        r += 1
        dims.append(r - head)

    for n in range(N):
        if not by_rrh[n]:
            continue
        head = r
        h[head] = math.sqrt(prob.caps[n])
        if margin:
            G[head, 0] = 1.0
        r += 1
        for k in by_rrh[n]:
            off = col[(k, n)]
            G[r:r + 2 * M, off:off + 2 * M] = -np.eye(2 * M)
            r += 2 * M
        dims.append(r - head)

    if not margin:
        head = r
        G[head, 0] = -1.0
        r += 1
        G[r:r + prob.nx - 1, 1:] = -np.eye(prob.nx - 1)
        r += prob.nx - 1
        dims.append(r - head)

    assert r == nrows
    return G, h, tail_rows, noise_rows, dims


def reference_instance(prob, margin, gamma):
    """(G, h, dims) at SINR target gamma from the reference template."""
    G, h, tail_rows, noise_rows, dims = reference_template(prob, margin)
    sq = math.sqrt(gamma)
    G[tail_rows] *= sq
    h[noise_rows] *= sq
    return G, h, dims


def _shapes():
    topo, desk, sigma2 = desk_instance(8)
    paper = random_channels(1, 15, 5, 5)
    many = random_channels(3, 7, 2, 2)
    partial = AssociationMap((frozenset({0, 1, 3}), frozenset({1, 2, 4}), frozenset({0, 5})))
    return {
        "desk": (desk, AssociationMap.full(3, 6), sigma2),
        "desk-partial": (desk, partial, sigma2),
        "paper-15x5x5": (paper, AssociationMap.full(5, 15), 1.0),
        "users-exceed-antennas": (many, AssociationMap.full(2, 7), 1.0),
        "one-antenna": (random_channels(4, 4, 3, 1), AssociationMap.full(3, 4), 1.0),
        "idle-rrh": (random_channels(5, 4, 3, 2),
                     AssociationMap((frozenset({0, 1}), frozenset(), frozenset({1, 2, 3}))),
                     1.0),
        "one-user": (random_channels(6, 1, 2, 3), AssociationMap.full(2, 1), 2.0),
    }


SHAPES = _shapes()


@pytest.mark.parametrize("gamma", [0.0, 1e-300, 1.0, 1e3])
@pytest.mark.parametrize("margin", [True, False], ids=["margin", "power"])
@pytest.mark.parametrize("name", SHAPES)
def test_template_equals_the_dense_reference(name, margin, gamma):
    ch, assoc, noise = SHAPES[name]
    prob = _BeamProblem(ch, assoc, np.linspace(1.0, 2.0, ch.n_rrh), noise)
    G, h, spec = prob._instantiate(prob._build(margin), gamma)
    ref_G, ref_h, ref_dims = reference_instance(prob, margin, gamma)
    # the template's pattern: an entry that gamma = 0 zeroes stays, as an explicit zero
    rows, cols = np.nonzero(reference_template(prob, margin)[0])
    assert np.array_equal(G.row, rows) and np.array_equal(G.col, cols)
    assert G.val.tobytes() == ref_G[rows, cols].tobytes()
    assert G.shape == ref_G.shape and np.array_equal(G.toarray(), ref_G)
    assert h.tobytes() == ref_h.tobytes()
    assert list(spec.dims) == ref_dims


@pytest.mark.parametrize("name", ["desk", "idle-rrh"])
def test_template_rows_match_the_reference(name):
    ch, assoc, noise = SHAPES[name]
    prob = _BeamProblem(ch, assoc, np.ones(ch.n_rrh), noise)
    template = prob._build(True)
    _, _, tail_rows, noise_rows, _ = reference_template(prob, True)
    assert template.tail_rows.tolist() == tail_rows
    assert template.noise_rows.tolist() == noise_rows
    # exactly the entries on interference rows scale with sqrt(gamma)
    assert np.array_equal(template.scaled, np.isin(template.G.row, tail_rows))


SRC = Path(__file__).resolve().parents[1] / "src"


def _loads_scipy_sparse(code):
    script = f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n" \
             "print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, cwd=Path(__file__).resolve().parent)
    return out.stdout.split()[-1] == "True"


def test_dense_path_never_loads_scipy_sparse():
    assert not _loads_scipy_sparse(
        "import numpy as np\n"
        "from conftest import desk_instance\n"
        "from cran_maxmin.beamforming import solve_max_min\n"
        "from cran_maxmin.harness import ExperimentConfig, draw_trial\n"
        "from cran_maxmin.model import AssociationMap\n"
        "from cran_maxmin.oracle import exhaustive_best\n"
        "topo, ch, sigma2 = desk_instance(8)\n"
        "assert solve_max_min(ch, AssociationMap.full(3, 6), np.ones(3), sigma2)[0] > 0\n"
        "cfg = ExperimentConfig.from_json('../configs/tiny.json')\n"
        "net = cfg.network_config(cfg.single_fronthaul())\n"
        "assert exhaustive_best(draw_trial(cfg, 0)[1], net, cfg.tolerances())[0] > 0")


def test_paper_size_probe_loads_scipy_sparse():
    assert _loads_scipy_sparse(
        "import numpy as np\n"
        "from conftest import random_channels\n"
        "from cran_maxmin.beamforming import check_feasible\n"
        "from cran_maxmin.model import AssociationMap\n"
        "ch = random_channels(1, 15, 5, 5)\n"
        "check_feasible(ch, AssociationMap.full(5, 15), 1e-3, np.ones(5), 1.0)")
