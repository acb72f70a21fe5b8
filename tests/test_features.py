"""Preprocessing, correlation dendrogram, group cutting, config enumeration."""

import itertools

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
import scipy.stats
from scipy.spatial.distance import squareform

from oracles import bf_correlation_dendrogram, bf_cut_groups, bf_leaf_order, fm_column

from vcnet.errors import ConfigError, SchemaError
from vcnet.features import (FeatureMatrix, correlation_dendrogram, cut_groups, enumerate_configs,
                            group_members, leaf_order, preprocess, read_configs, read_grouping,
                            sample_skewness, write_dendrogram_csv, write_grouping_csv)
from vcnet.ingest import write_csv


def fm_from(data, columns):
    data = np.asarray(data, dtype=float)
    return FeatureMatrix([f"r{i}" for i in range(data.shape[0])], list(columns), data)


class TestPreprocess:
    def test_symmetric_column_not_logged(self):
        rng = np.random.default_rng(0)
        fm = fm_from(rng.normal(size=(500, 1)), ["sym"])
        out = preprocess(fm)
        assert out.transforms["sym"] == "none"
        assert fm_column(out, "sym").mean() == pytest.approx(0.0, abs=1e-9)
        assert fm_column(out, "sym").std(ddof=1) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_column_logged_with_skew_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(size=800)
        assert sample_skewness(x) == pytest.approx(scipy.stats.skew(x), abs=1e-12)
        assert sample_skewness(x) > 1.0
        out = preprocess(fm_from(x.reshape(-1, 1), ["expo"]))
        assert out.transforms["expo"] == "log1p"

    @pytest.mark.parametrize("column, reason", [
        (np.ones(50), "zero variance"),
        # an ulp apart at 1e20, the values are right-skewed and log1p maps them to one value
        (np.r_[np.full(49, 1e20), np.nextafter(1e20, np.inf)], "zero variance after log"),
    ], ids=["constant", "constant_after_log"])
    def test_constant_column_dropped_with_warning(self, column, reason):
        fm = fm_from(np.column_stack([column, np.arange(50)]), ["const", "ramp"])
        with pytest.warns(UserWarning, match="'const' has zero variance"):
            out = preprocess(fm)
        assert out.columns == ["ramp"]
        assert out.dropped == [("const", reason)]

    def test_negative_columns_never_logged(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(size=500) - 5.0  # skewed but negative values
        out = preprocess(fm_from(x.reshape(-1, 1), ["shifted"]))
        assert out.transforms["shifted"] == "none"

    def test_threshold_is_a_knob(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(size=500)
        out = preprocess(fm_from(x.reshape(-1, 1), ["expo"]), skew_threshold=100.0)
        assert out.transforms["expo"] == "none"

    def test_all_columns_standardized(self):
        rng = np.random.default_rng(4)
        data = np.column_stack([rng.exponential(size=300), rng.normal(5, 3, size=300)])
        out = preprocess(fm_from(data, ["a", "b"]))
        for col in out.columns:
            assert fm_column(out, col).mean() == pytest.approx(0.0, abs=1e-9)
            assert fm_column(out, col).std(ddof=1) == pytest.approx(1.0, abs=1e-9)


class TestDendrogram:
    def test_perfectly_correlated_merge_at_zero(self):
        x = np.arange(100.0)
        fm = fm_from(np.column_stack([x, 2 * x + 3, np.random.default_rng(0).normal(size=100)]),
                     ["a", "b", "noise"])
        fg = correlation_dendrogram(fm)
        step0 = fg.merges[0]
        assert step0[3] == pytest.approx(0.0, abs=1e-12)
        assert {fg.leaves[step0[1]], fg.leaves[step0[2]]} == {"a", "b"}

    def test_negation_merges_at_zero(self):
        x = np.random.default_rng(1).normal(size=200)
        fm = fm_from(np.column_stack([x, -x, np.random.default_rng(2).normal(size=200)]),
                     ["pos", "neg", "noise"])
        fg = correlation_dendrogram(fm)
        assert fg.merges[0][3] == pytest.approx(0.0, abs=1e-12)

    def _planted_blocks(self, seed=5):
        rng = np.random.default_rng(seed)
        n = 400
        bases = [rng.normal(size=n) for _ in range(3)]
        cols, names = [], []
        for b, (base, size) in enumerate(zip(bases, (3, 2, 2))):
            for j in range(size):
                cols.append(base + 0.05 * rng.normal(size=n))
                names.append(f"blk{b}_{j}")
        return fm_from(np.column_stack(cols), names)

    def test_planted_blocks_first_merges_within_blocks(self):
        fm = self._planted_blocks()
        fg = correlation_dendrogram(fm)
        # the first (p - 3) merges must all join columns of one block
        p = len(fm.columns)
        members = {i: {fm.columns[i].split("_")[0]} for i in range(p)}
        for step, left, right, height in fg.merges[: p - 3]:
            blocks = members[left] | members[right]
            assert len(blocks) == 1, f"cross-block merge at height {height}"
            members[p + step] = blocks

    def test_partition_matches_scipy_complete_linkage(self):
        fm = self._planted_blocks(seed=6)
        fg = cut_groups(correlation_dendrogram(fm), 3)
        corr = np.corrcoef(fm.data, rowvar=False)
        dist = 1.0 - np.abs(corr)
        np.fill_diagonal(dist, 0.0)
        link = sch.linkage(squareform(dist, checks=False), method="complete")
        labels = sch.fcluster(link, t=3, criterion="maxclust")
        mine = {}
        for col, grp in fg.groups.items():
            mine.setdefault(grp, set()).add(col)
        theirs = {}
        for col, lab in zip(fm.columns, labels):
            theirs.setdefault(int(lab), set()).add(col)
        assert sorted(map(sorted, mine.values())) == sorted(map(sorted, theirs.values()))

    def test_heights_match_scipy(self):
        fm = self._planted_blocks(seed=7)
        fg = correlation_dendrogram(fm)
        corr = np.corrcoef(fm.data, rowvar=False)
        dist = 1.0 - np.abs(corr)
        np.fill_diagonal(dist, 0.0)
        link = sch.linkage(squareform(dist, checks=False), method="complete")
        assert np.allclose(sorted(h for *_, h in fg.merges), sorted(link[:, 2]), atol=1e-10)

    def test_scale_invariance(self):
        fm = self._planted_blocks(seed=8)
        fg1 = correlation_dendrogram(fm)
        scaled = fm_from(fm.data * np.array([3.0, -2.0, 1.0, 0.5, -7.0, 1.0, 4.0]), fm.columns)
        fg2 = correlation_dendrogram(scaled)
        assert [(s, l, r) for s, l, r, _ in fg1.merges] == [(s, l, r) for s, l, r, _ in fg2.merges]
        assert np.allclose([h for *_, h in fg1.merges], [h for *_, h in fg2.merges], atol=1e-9)


class TestCutGroups:
    def _fm(self, seed=9, p=6):
        rng = np.random.default_rng(seed)
        return fm_from(rng.normal(size=(120, p)), [f"c{i}" for i in range(p)])

    def test_k_equals_p_gives_singletons(self):
        fm = self._fm()
        fg = cut_groups(correlation_dendrogram(fm), len(fm.columns))
        assert sorted(fg.groups.values()) == list(range(1, len(fm.columns) + 1))

    def test_k_one_gives_one_group(self):
        fm = self._fm()
        fg = cut_groups(correlation_dendrogram(fm), 1)
        assert set(fg.groups.values()) == {1}

    def test_k_too_large_raises(self):
        fm = self._fm(p=4)
        with pytest.raises(ConfigError):
            cut_groups(correlation_dendrogram(fm), 5)

    def test_cut_refines_previous_cut(self):
        fm = self._fm(seed=10, p=9)
        tree = correlation_dendrogram(fm)
        for k in range(2, 9):
            fine = cut_groups(tree, k)
            coarse = cut_groups(tree, k - 1)
            fine_sets = {}
            for col, grp in fine.groups.items():
                fine_sets.setdefault(grp, set()).add(col)
            coarse_of = coarse.groups
            for cluster in fine_sets.values():
                assert len({coarse_of[c] for c in cluster}) == 1

    def test_groups_numbered_by_leaf_order(self):
        fm = self._fm(seed=11, p=7)
        fg = cut_groups(correlation_dendrogram(fm), 3)
        seen = []
        for leaf in leaf_order(fg):
            grp = fg.groups[leaf]
            if grp not in seen:
                seen.append(grp)
        assert seen == [1, 2, 3]


def _tied_matrix(rng):
    """A random covariate matrix with duplicated, scaled and negated columns.

    Such copies lie at distance 0 from their source and at equal distance
    from every other column, so merges tie exactly; names are drawn so
    that ties break on names out of column order.
    """
    p, n = int(rng.integers(0, 13)), int(rng.integers(3, 40))
    data = rng.normal(size=(n, p))
    for j in range(1, p):
        if rng.random() < 0.4:
            data[:, j] = rng.choice([1.0, -1.0, 2.5, -0.3]) * data[:, rng.integers(0, j)]
    names = [f"c{int(x):03d}" for x in rng.choice(1000, size=p, replace=False)]
    return fm_from(data, names)


class TestGroupingOracle:
    """The linkage-matrix dendrogram and the merge replay equal the pairwise oracles."""

    def _check(self, fm):
        fg, ref = correlation_dendrogram(fm), bf_correlation_dendrogram(fm)
        assert fg.merges == ref.merges
        assert leaf_order(fg) == bf_leaf_order(ref)
        for k in range(1, len(fm.columns) + 1):
            assert list(cut_groups(fg, k).groups.items()) == list(bf_cut_groups(ref, k).items())
        return fg

    def test_random_matrices_with_exact_ties(self):
        rng = np.random.default_rng(14)
        asymmetric = tied = 0
        for _ in range(240):
            fm = _tied_matrix(rng)
            p = len(fm.columns)
            corr = np.corrcoef(fm.data, rowvar=False).reshape(p, p)
            asymmetric += bool((corr != corr.T).any())
            heights = [h for *_, h in self._check(fm).merges]
            tied += len(set(heights)) < len(heights)
        # both hazards occur often enough to matter
        assert asymmetric >= 100 and tied >= 50, (asymmetric, tied)

    def test_undefined_correlation_raises(self):
        data = np.random.default_rng(3).normal(size=(20, 3))
        data[:, 1] = 1.0
        with np.errstate(invalid="ignore"), pytest.raises(ConfigError, match="undefined"):
            correlation_dendrogram(fm_from(data, ["a", "b", "c"]))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_smallest_trees(self, p):
        fm = fm_from(np.random.default_rng(p).normal(size=(10, p)), ["b", "a"][:p])
        fg = self._check(fm)
        assert len(fg.merges) == max(p - 1, 0)
        assert leaf_order(fg) == (["a", "b"] if p == 2 else fm.columns)
        if p == 0:
            with pytest.raises(ConfigError):
                cut_groups(fg, 1)


def correlated_blocks(sizes, seed=12, n=300):
    """A grouping of ``len(sizes)`` blocks of near-copies, cut into one group per block."""
    rng = np.random.default_rng(seed)
    cols, names = [], []
    for b, size in enumerate(sizes):
        base = rng.normal(size=n)
        for j in range(size):
            cols.append(base + 0.01 * rng.normal(size=n))
            names.append(f"g{b}_{j}")
    fm = fm_from(np.column_stack(cols), names)
    return cut_groups(correlation_dendrogram(fm), len(sizes))


def name_tuples(fg):
    """The configurations as name tuples: the product of the groups' members."""
    return list(itertools.product(*group_members(fg).values()))


class TestEnumerateConfigs:
    def test_singleton_groups_single_config(self):
        fg = correlated_blocks([1, 1, 1])
        configs = enumerate_configs(fg)
        assert configs.shape == (1, 3)
        assert {fg.groups[fg.leaves[p]] for p in configs[0]} == {1, 2, 3}

    def test_product_rule(self):
        fg = correlated_blocks([2, 3])
        configs = enumerate_configs(fg)
        assert configs.shape == (6, 2)
        assert len({tuple(row) for row in configs.tolist()}) == 6
        for row in configs.tolist():
            assert [fg.groups[fg.leaves[p]] for p in row] == [1, 2]

    def test_count_is_group_size_product(self):
        fg = correlated_blocks([2, 2, 3, 1])
        sizes = [len(m) for m in group_members(fg).values()]
        assert len(enumerate_configs(fg)) == int(np.prod(sizes)) == 12

    def test_six_group_product_is_one_integer_array(self):
        fg = correlated_blocks([4, 3, 3, 2, 2, 1], seed=13)
        configs = enumerate_configs(fg)
        assert isinstance(configs, np.ndarray) and configs.dtype.kind == "i"
        assert configs.shape == (144, 6)
        assert [tuple(fg.leaves[p] for p in row) for row in configs.tolist()] == name_tuples(fg)


class TestConfigsArtifacts:
    def _write_grouping(self, fg, tmp_path):
        write_dendrogram_csv(fg, tmp_path / "dendrogram.csv")
        write_grouping_csv(fg, tmp_path / "groups.csv")
        return tmp_path / "dendrogram.csv", tmp_path / "groups.csv"

    def test_rebuilt_from_dendrogram_and_groups(self, tmp_path):
        fg = correlated_blocks([3, 1, 4, 2], seed=15)
        paths = self._write_grouping(fg, tmp_path)
        got, configs = read_configs(*paths)
        assert read_grouping(*paths) == got
        assert (got.leaves, got.groups, len(set(got.groups.values()))) == (fg.leaves, fg.groups, 4)
        assert [m[:3] for m in got.merges] == [m[:3] for m in fg.merges]
        np.testing.assert_array_equal(configs, enumerate_configs(fg))

    def test_cut_follows_groups_csv_not_a_requested_k(self, tmp_path):
        # the merges cut at any k; the number of groups comes from groups.csv
        tree = correlated_blocks([2, 2, 2], seed=16)
        for k in (1, 4, 6):
            fg = cut_groups(tree, k)
            got, configs = read_configs(*self._write_grouping(fg, tmp_path))
            assert got.groups == fg.groups and configs.shape[1] == k

    def test_groups_the_merges_do_not_cut_raise_naming_both_files(self, tmp_path):
        fg = correlated_blocks([2, 3, 2], seed=17)
        dendrogram, groups = self._write_grouping(fg, tmp_path)
        text = groups.read_text()
        leaf = next(c for c in fg.leaves if fg.groups[c] == 1)
        groups.write_text(text.replace(f"{leaf},1", f"{leaf},2"))
        for read in (read_grouping, read_configs):
            with pytest.raises(SchemaError) as err:
                read(dendrogram, groups)
            assert str(dendrogram) in str(err.value) and str(groups) in str(err.value)

    @pytest.mark.parametrize("rows,line", [
        # a row that cannot be read names its line; one that does not merge cannot
        pytest.param([["0", "0", "1"]], "line 2: expected 4 fields, got 3", id="rows0"),
        pytest.param([["0", "x", "1", "0.5"]], "line 2: invalid literal", id="rows1"),
        pytest.param([["0", "0", "99", "0.5"]], None, id="rows2")])
    def test_unreadable_merges_raise_naming_both_files(self, tmp_path, rows, line):
        fg = correlated_blocks([2, 2], seed=18)
        dendrogram, groups = self._write_grouping(fg, tmp_path)
        write_csv(dendrogram, ["step", "left", "right", "height"], rows)
        for read in (read_grouping, read_configs):
            with pytest.raises(SchemaError) as err:
                read(dendrogram, groups)
            assert str(dendrogram) in str(err.value) and str(groups) in str(err.value)
            if line is not None:
                assert f"{dendrogram}: {line}" in str(err.value)
            else:
                assert ": line" not in str(err.value)

    def test_unreadable_groups_raise_naming_both_files_and_the_line(self, tmp_path):
        fg = correlated_blocks([2, 2], seed=19)
        dendrogram, groups = self._write_grouping(fg, tmp_path)
        header, first, *rest = groups.read_text(encoding="utf-8").splitlines()
        groups.write_text("\n".join([header, first.split(",")[0] + ",x", *rest]) + "\n",
                          encoding="utf-8")
        for read in (read_grouping, read_configs):
            with pytest.raises(SchemaError) as err:
                read(dendrogram, groups)
            assert str(dendrogram) in str(err.value)
            assert f"{groups}: line 2: invalid literal for int() with base 10: 'x'" in str(err.value)
