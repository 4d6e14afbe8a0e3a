"""Dedup detectors on constructed duplicates + similarity recall +
multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd


@pytest.fixture(scope="module")
def dup_dir(tmp_path_factory):
    """documents.parquet with known exact + near duplicates, and
    embeddings.parquet with known near-identical vectors."""
    d = tmp_path_factory.mktemp("dup")
    base = (
        "The quick brown fox jumps over the lazy dog while the rain in "
        "spain falls mainly on the plain and every good boy deserves "
        "fudge because the five boxing wizards jump quickly tonight."
    )
    other = (
        "Completely different content about distributed dataflow engines "
        "streaming arrow batches through actor pools with salted hash "
        "partitioning and per-partition lineage checkpoints for resume."
    )
    near = base.replace("lazy dog", "sleepy dog")  # 1-phrase change
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array([base, base, near, other, "short"], pa.string()),
        "lang": pa.array(["en"] * 5),
        "source": pa.array(["s"] * 5),
        "n_chars": pa.array([len(base), len(base), len(near), len(other), 5], pa.int64()),
    })
    pq.write_table(docs, str(d / "documents.parquet"))

    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((6, 16)).astype(np.float32)
    vecs[1] = vecs[0] + 0.001 * rng.standard_normal(16).astype(np.float32)  # near-dup of 0
    emb = pa.table({
        "vec_id": pa.array(range(6), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
        "label": pa.array([0] * 6, pa.int32()),
    })
    pq.write_table(emb, str(d / "embeddings.parquet"))
    return str(d)


class TestDedupDetectors:
    def test_minhash_collapses_exact_and_near(self, dup_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_minhash

        kept = sorted(r["doc_id"] for r in dedup_minhash(dup_dir).take_all())
        # docs 0,1 (identical) and 2 (near) collapse to 0; 3 and 4 survive
        assert kept == [0, 3, 4]

    def test_ngram_collapses_exact(self, dup_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_ngram

        kept = sorted(r["doc_id"] for r in dedup_ngram(dup_dir).take_all())
        assert 0 in kept and 1 not in kept
        assert {3, 4}.issubset(set(kept))

    def test_simhash_collapses_exact_not_near(self, dup_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.functions.dedup import hamming64, simhash64
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_simhash

        kept = sorted(r["doc_id"] for r in dedup_simhash(dup_dir).take_all())
        # exact dup (1) collapses into 0; the 1-word-changed doc 2 moves
        # the simhash of a ~35-token text by >3 bits, so it survives at
        # the default threshold — verify that premise explicitly
        base_h = simhash64(
            "The quick brown fox jumps over the lazy dog while the rain in "
            "spain falls mainly on the plain and every good boy deserves "
            "fudge because the five boxing wizards jump quickly tonight."
        )
        near_h = simhash64(
            "The quick brown fox jumps over the sleepy dog while the rain in "
            "spain falls mainly on the plain and every good boy deserves "
            "fudge because the five boxing wizards jump quickly tonight."
        )
        assert hamming64(base_h, near_h) > 3
        assert kept == [0, 2, 3, 4]

    def test_embedding_neardup(self, dup_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import neardup_embedding

        kept = sorted(r["doc_id"] for r in neardup_embedding(dup_dir).take_all())
        assert 0 in kept and 1 not in kept  # vec 1 ~ vec 0 removed
        assert len(kept) == 5


class TestClustering:
    """Distributed min-label propagation must agree with union-find."""

    CASES = [
        # chain (worst case for propagation rounds), clique, isolated pair
        [(0, 1), (1, 2), (2, 3), (3, 4), (10, 11), (10, 12), (11, 12), (20, 21)],
        [(5, 9), (1, 9), (1, 5)],
        [(100, 2), (3, 100), (2, 3), (7, 8)],
    ]

    def test_label_propagation_matches_union_find(self, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            _removed_by_label_propagation,
            _union_find,
        )

        for pairs in self.CASES:
            roots = _union_find(pairs)
            expected = {d for d, r in roots.items() if r != d}
            got = _removed_by_label_propagation(pairs, num_buckets=4)
            assert got == expected, pairs

    def test_label_propagation_random_graphs(self, ray_session):
        """Seeded random graphs (mixed chains/cliques/isolates): the
        distributed path must agree with union-find every time."""
        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            _removed_by_label_propagation,
            _union_find,
        )

        for seed in (3, 11):
            rng = np.random.default_rng(seed)
            n_edges = int(rng.integers(10, 40))
            pairs = [tuple(sorted(map(int, rng.integers(0, 60, size=2))))
                     for _ in range(n_edges)]
            pairs = [p for p in pairs if p[0] != p[1]]
            roots = _union_find(pairs)
            expected = {d for d, r in roots.items() if r != d}
            got = _removed_by_label_propagation(pairs, num_buckets=4)
            assert got == expected, (seed, pairs)

    def test_dedup_through_propagation_path(self, dup_dir, ray_session,
                                            monkeypatch):
        from mistralocr_pdf2md_translator_ray.stages import dedup as dd

        monkeypatch.setattr(dd, "_UNION_FIND_MAX_PAIRS", 0)
        kept = sorted(r["doc_id"] for r in dd.dedup_minhash(dup_dir).take_all())
        assert kept == [0, 3, 4]  # identical to the union-find path


class TestSimhashBandDerivation:
    def test_larger_threshold_widens_blocking(self, tmp_path, ray_session):
        """A pair at Hamming distance 5 must be caught when
        max_hamming=5 (6 bands) — the old fixed 4-band blocking could
        only guarantee distance <= 3."""
        import pyarrow.parquet as pq2

        from mistralocr_pdf2md_translator_ray.functions.dedup import (
            hamming64,
            simhash64,
            simhash_bands,
        )
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_simhash

        base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
                "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
        # find a variant at hamming distance in (3, 6] that shares NO
        # 16-bit band (so 4-band blocking would provably miss it)
        h0 = simhash64(base)
        variant = None
        words = base.split()
        for i in range(len(words)):
            for repl in ["psi", "omega", "digamma", "koppa", "sampi"]:
                cand = " ".join(words[:i] + [repl] + words[i + 1:])
                h1 = simhash64(cand)
                d = hamming64(h0, h1)
                if 3 < d <= 5 and not any(
                    a == b for a, b in zip(simhash_bands(h0, 4),
                                           simhash_bands(h1, 4))):
                    variant = cand
                    break
            if variant:
                break
        if variant is None:
            pytest.skip("no adversarial variant found in search space")

        docs = pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array([base, variant], pa.string()),
        })
        d = tmp_path / "simhash_docs"
        d.mkdir()
        pq2.write_table(docs, str(d / "documents.parquet"))
        kept = sorted(r["doc_id"] for r in
                      dedup_simhash(str(d), max_hamming=5).take_all())
        assert kept == [0]  # caught at the wider threshold

    def test_max_hamming_validation(self, dup_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_simhash

        with pytest.raises(ValueError):
            dedup_simhash(dup_dir, max_hamming=64)


class TestSimilarity:
    def test_ivf_full_probe_matches_brute_force(self, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import knn_cosine
        from mistralocr_pdf2md_translator_ray.stages.similarity import knn_cosine_ivf

        sf = "/root/testdata/sf0.001"
        brute = knn_cosine(sf).to_pandas()
        ivf = knn_cosine_ivf(sf, n_centroids=4, nprobe=4).to_pandas()
        assert brute["vec_id"].tolist() == ivf["vec_id"].tolist()
        assert brute["score"].tolist() == ivf["score"].tolist()

    def test_ivf_partial_probe_high_recall(self, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import knn_cosine
        from mistralocr_pdf2md_translator_ray.stages.similarity import knn_cosine_ivf

        sf = "/root/testdata/sf0.001"
        brute = set(knn_cosine(sf).to_pandas()["vec_id"])
        ivf = set(knn_cosine_ivf(sf, n_centroids=8, nprobe=4).to_pandas()["vec_id"])
        assert len(brute & ivf) >= 7  # recall@10 >= 0.7 with half the probes


class TestMultiBandLSH:
    def test_recall_on_planted_near_pairs(self, tmp_path, ray_session):
        """Plant near-dup pairs at cos ~0.96 (a real angle, not
        epsilon-perturbations): multi-band LSH + exact verification
        must remove most planted dups and no unrelated vector."""
        from mistralocr_pdf2md_translator_ray.stages.dedup import neardup_embedding

        rng = np.random.default_rng(17)
        dim, n_pairs, n_noise = 32, 30, 200
        base = rng.standard_normal((n_pairs, dim))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        # rotate each base vector by ~16 degrees -> cosine ~0.96
        perturb = rng.standard_normal((n_pairs, dim))
        perturb -= (perturb * base).sum(1, keepdims=True) * base
        perturb /= np.linalg.norm(perturb, axis=1, keepdims=True)
        theta = np.arccos(0.96)
        near = np.cos(theta) * base + np.sin(theta) * perturb
        noise = rng.standard_normal((n_noise, dim))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)

        vecs = np.concatenate([base, near, noise])
        cos = (vecs[:n_pairs] * vecs[n_pairs:2 * n_pairs]).sum(1)
        assert (cos > 0.955).all()
        emb = pa.table({
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float32())),
        })
        d = tmp_path / "emb_nd"
        d.mkdir()
        pq.write_table(emb, str(d / "embeddings.parquet"))

        kept = set(r["doc_id"] for r in neardup_embedding(str(d)).take_all())
        # every base and noise vector survives (they're mutually far)
        removed = set(range(len(vecs))) - kept
        assert removed <= set(range(n_pairs, 2 * n_pairs))  # only planted dups go
        # multi-band recall: at least ~2/3 of planted dups caught
        # (single 12-plane band catches ~28% in expectation)
        assert len(removed) >= 20, f"recall too low: {len(removed)}/30"


class TestKnnTieBreaks:
    """Planted exact score ties straddling the k boundary: every kNN
    path prunes through topk_prune (score desc, vec_id asc), so the
    cut row set must be the lowest-id members of the tie group on all
    four scorers — a bare argpartition would pick arbitrarily."""

    @pytest.fixture(scope="class")
    def tie_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("ties")
        dim = 8
        rng = np.random.default_rng(7)
        # query direction
        q = np.zeros(dim); q[0] = 1.0
        # ids 1..30: THIRTY bit-identical vectors at cos ~0.894 to q —
        # the whole top-k boundary falls inside this tie group
        u = np.zeros(dim); u[0] = 2.0; u[1] = 1.0
        # ids 31..60: strictly lower cosine, mutually distinct
        low = rng.standard_normal((30, dim)) * 0.2
        low[:, 0] = 0.3  # cos well below the tie group's
        vecs = [q] + [u] * 30 + list(low)
        emb = pa.table({
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([np.asarray(v, np.float32).tolist()
                                   for v in vecs], pa.list_(pa.float32())),
        })
        pq.write_table(emb, str(d / "embeddings.parquet"))
        return str(d)

    EXPECT = list(range(1, 11))  # lowest ids of the tie group

    def test_knn_cosine(self, tie_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import knn_cosine

        got = knn_cosine(tie_dir, k=10).to_pandas()
        assert got["vec_id"].tolist() == self.EXPECT

    def test_knn_cosine_multi(self, tie_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import knn_cosine_multi

        got = knn_cosine_multi(tie_dir, k=10, n_queries=1).to_pandas()
        assert got.loc[got["query_id"] == 0, "vec_id"].tolist() == self.EXPECT

    def test_knn_cosine_ivf(self, tie_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.similarity import knn_cosine_ivf

        got = knn_cosine_ivf(tie_dir, k=10, n_centroids=2, nprobe=2).to_pandas()
        assert got["vec_id"].tolist() == self.EXPECT

    def test_knn_cosine_ivf_indexed(self, tie_dir, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            build_ivf_index,
            knn_cosine_ivf_indexed,
        )

        idx = str(tmp_path / "idx")
        build_ivf_index(tie_dir, idx, n_centroids=2, seed=3)
        qt = pq.read_table(f"{tie_dir}/embeddings.parquet",
                           filters=[("vec_id", "==", 0)])
        qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)
        got = knn_cosine_ivf_indexed(idx, qv, k=10, nprobe=2,
                                     exclude_vec_id=0).to_pandas()
        assert got["vec_id"].tolist() == self.EXPECT

    def test_topk_prune_unit(self):
        from mistralocr_pdf2md_translator_ray.functions.vectors import topk_prune

        ids = np.array([9, 3, 5, 1, 7], np.int64)
        sims = np.array([0.5, 0.5, 0.5, 0.9, 0.5])
        got_ids, got_sims = topk_prune(ids, sims, 3)
        assert got_ids.tolist() == [1, 3, 5]  # best first, ties by id asc
        assert got_sims.tolist() == [0.9, 0.5, 0.5]
        # k >= n passes through untouched
        same_ids, _ = topk_prune(ids, sims, 5)
        assert same_ids.tolist() == ids.tolist()


class TestIvfIndex:
    def test_build_then_query_prunes_partitions(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.pipelines.library import knn_cosine
        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            build_ivf_index,
            knn_cosine_ivf_indexed,
        )

        sf = "/root/testdata/sf0.001"
        idx = str(tmp_path / "ivf_index")
        C = build_ivf_index(sf, idx, n_centroids=4, seed=5)
        assert C.shape[0] == 4
        # partitioned layout exists
        import os

        cids = [d for d in os.listdir(idx) if d.startswith("cid=")]
        assert len(cids) >= 2

        qt = pq.read_table(f"{sf}/embeddings.parquet",
                           columns=["vec_id", "embedding"],
                           filters=[("vec_id", "==", 0)])
        qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)

        # full probe == brute force, byte-for-byte (oracle anchor: at
        # nprobe=n_centroids the index reads every partition, so the
        # result must equal knn_cosine EXACTLY, not just by recall)
        import pandas as pd

        brute = knn_cosine(sf).to_pandas().reset_index(drop=True)
        full = knn_cosine_ivf_indexed(
            idx, qv, nprobe=4, exclude_vec_id=0).to_pandas().reset_index(drop=True)
        pd.testing.assert_frame_equal(brute, full, check_exact=True)

        # partial probe reads FEWER partitions and keeps high recall
        part = knn_cosine_ivf_indexed(idx, qv, nprobe=2,
                                      exclude_vec_id=0).to_pandas()
        assert len(set(brute["vec_id"]) & set(part["vec_id"])) >= 7


class TestIvfAppend:
    def test_append_matches_full_rebuild_at_full_probe(self, tmp_path,
                                                       ray_session):
        """Grow-the-corpus increment: build on 90%, append the 10%
        'daily' shard; at full probe the appended index answers exactly
        the brute-force top-k over the CONCATENATED corpus, appended
        rows sit in the partition of their nearest frozen centroid,
        and no pre-existing index file is rewritten."""
        import os

        import pandas as pd

        from mistralocr_pdf2md_translator_ray.functions.vectors import (
            list_column_to_matrix,
        )
        from mistralocr_pdf2md_translator_ray.pipelines.library import knn_cosine
        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            append_to_ivf_index,
            build_ivf_index,
            knn_cosine_ivf_indexed,
        )

        sf = "/root/testdata/sf0.001"
        emb = pq.read_table(f"{sf}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
        is_new = pa.array(emb["vec_id"].to_numpy() % 10 == 5)
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old_dir.mkdir(), new_dir.mkdir()
        pq.write_table(emb.filter(pa.compute.invert(is_new)),
                       str(old_dir / "embeddings.parquet"))
        pq.write_table(emb.filter(is_new),
                       str(new_dir / "embeddings.parquet"))

        idx = str(tmp_path / "ivf")
        C = build_ivf_index(str(old_dir), idx, n_centroids=4, seed=5)
        pre = {os.path.join(r, f): os.path.getmtime(os.path.join(r, f))
               for r, _, fs in os.walk(idx) for f in fs
               if f != "meta.json"}  # the appended-paths meta rewrites
        append_to_ivf_index(str(new_dir), idx)

        # old index bytes untouched, new rows present
        for path, mtime in pre.items():
            assert os.path.getmtime(path) == mtime, path
        part_files = sorted(
            os.path.join(r, f) for r, _, fs in os.walk(idx) for f in fs
            if f.endswith(".parquet"))
        all_rows = pa.concat_tables(
            pq.read_table(f).append_column(
                "cid", pa.array([int(f.split("cid=")[1].split("/")[0])]
                                * pq.ParquetFile(f).metadata.num_rows,
                                pa.int32()))
            for f in part_files)
        assert all_rows.num_rows == emb.num_rows

        # appended rows are in their nearest-frozen-centroid partition
        newly = all_rows.filter(
            pa.array(all_rows["vec_id"].to_numpy() % 10 == 5))
        M = list_column_to_matrix(newly["embedding"])
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        want = (M @ C.T).argmax(axis=1)
        got = np.asarray(
            [int(c) for c in newly["cid"].to_numpy(zero_copy_only=False)])
        assert (got == want).all()

        # full probe over the appended index == brute force over the
        # CONCATENATED corpus, byte-for-byte
        qt = emb.filter(
            pa.compute.equal(emb["vec_id"], pa.scalar(0, pa.int64())))
        qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)
        brute = knn_cosine(sf).to_pandas().reset_index(drop=True)
        full = knn_cosine_ivf_indexed(
            idx, qv, nprobe=4,
            exclude_vec_id=0).to_pandas().reset_index(drop=True)
        pd.testing.assert_frame_equal(brute, full, check_exact=True)


class TestKmeansRefine:
    def _write_clusters(self, d, n_clusters=4, per=300, dim=8, spread=0.05):
        """Well-separated planted clusters on the unit sphere."""
        rng = np.random.default_rng(7)
        centers = rng.standard_normal((n_clusters, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        vecs, labels = [], []
        for c in range(n_clusters):
            pts = centers[c] + spread * rng.standard_normal((per, dim))
            vecs.append(pts)
            labels.extend([c] * per)
        V = np.vstack(vecs)
        emb = pa.table({
            "vec_id": pa.array(range(len(V)), pa.int64()),
            "embedding": pa.array([v.tolist() for v in V],
                                  pa.list_(pa.float32())),
        })
        pq.write_table(emb, str(d / "embeddings.parquet"),
                       row_group_size=200)
        return centers, np.array(labels), V

    def test_objective_nondecreasing_and_recovers_clusters(
            self, tmp_path, ray_session):
        """Spherical Lloyd's objective (sum cos-sim to assigned
        centroid) must be non-decreasing per iteration, and from a bad
        deterministic init the refined centroids must land on the
        planted ones."""
        from mistralocr_pdf2md_translator_ray.stages.similarity import kmeans_refine

        d = tmp_path / "km"
        d.mkdir()
        centers, _, V = self._write_clusters(d)

        # adversarial init: 4 copies of roughly one direction
        rng = np.random.default_rng(0)
        C0 = centers[0] + 0.3 * rng.standard_normal((4, 8))
        C0 /= np.linalg.norm(C0, axis=1, keepdims=True)

        C, objs = kmeans_refine(str(d), C0, n_iters=4)
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:])), objs
        np.testing.assert_allclose(np.linalg.norm(C, axis=1), 1.0,
                                   rtol=1e-9)
        # every planted center has a refined centroid within cos >= 0.98
        sims = centers @ C.T
        assert (sims.max(axis=1) >= 0.98).sum() >= 3

    def test_refined_index_full_probe_stays_exact(self, tmp_path,
                                                  ray_session):
        """refine_iters changes the partitioning, never the vectors:
        the full-probe indexed query must still equal brute force."""
        import pandas as pd

        from mistralocr_pdf2md_translator_ray.pipelines.library import knn_cosine
        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            build_ivf_index,
            knn_cosine_ivf_indexed,
        )

        sf = "/root/testdata/sf0.001"
        idx = str(tmp_path / "ivf_refined")
        C = build_ivf_index(sf, idx, n_centroids=4, seed=5, refine_iters=2)
        assert C.shape[0] == 4
        qt = pq.read_table(f"{sf}/embeddings.parquet",
                           columns=["vec_id", "embedding"],
                           filters=[("vec_id", "==", 0)])
        qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)
        brute = knn_cosine(sf).to_pandas().reset_index(drop=True)
        full = knn_cosine_ivf_indexed(
            idx, qv, nprobe=4, exclude_vec_id=0).to_pandas().reset_index(
                drop=True)
        pd.testing.assert_frame_equal(brute, full, check_exact=True)


class TestCentroidSampling:
    def test_deterministic_over_multi_row_group_file(self, tmp_path, ray_session):
        """Centroid training reads seeded row groups, not the corpus:
        deterministic across calls, and valid on a many-row-group file."""
        from mistralocr_pdf2md_translator_ray.stages.similarity import _centroids

        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((2000, 8)).astype(np.float32)
        emb = pa.table({
            "vec_id": pa.array(range(2000), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float32())),
        })
        d = tmp_path / "emb"
        d.mkdir()
        pq.write_table(emb, str(d / "embeddings.parquet"), row_group_size=100)

        c1 = _centroids(str(d), n_centroids=4, seed=5)
        c2 = _centroids(str(d), n_centroids=4, seed=5)
        np.testing.assert_array_equal(c1, c2)
        assert c1.shape == (4, 8)
        np.testing.assert_allclose(np.linalg.norm(c1, axis=1), 1.0, rtol=1e-9)


class TestResizeAndFrames:
    def test_resize_deterministic_shape(self, tiny_fixture, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.multimodal import resize_payloads

        _t, p = tiny_fixture
        out = resize_payloads(rd.from_arrow(p), width=8, height=4).to_pandas()
        out = out.sort_values(["conv_id", "turn_idx", "payload_id"]).reset_index(drop=True)
        assert len(out) == p.num_rows
        assert (out["resize_status"] == "ok").all()
        assert all(len(bytes(b)) == 8 * 4 for b in out["payload_resized"])
        out2 = resize_payloads(rd.from_arrow(p), width=8, height=4).to_pandas()
        out2 = out2.sort_values(["conv_id", "turn_idx", "payload_id"]).reset_index(drop=True)
        assert [bytes(b) for b in out["payload_resized"]] == \
               [bytes(b) for b in out2["payload_resized"]]

    def test_frame_sampling_fans_out_rows(self, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.multimodal import sample_frames

        # 5 KiB payload -> 5 fake frames -> every=2 samples 0,2,4
        p = pa.table({
            "conv_id": pa.array(["c1"], pa.string()),
            "turn_idx": pa.array([0], pa.int32()),
            "payload_id": pa.array(["v1"], pa.string()),
            "kind": pa.array(["video"], pa.string()),
            "payload": pa.array([b"\x01" * (5 * 1024)], pa.binary()),
        })
        out = sample_frames(rd.from_arrow(p), every=2).to_pandas()
        assert out["frame_idx"].tolist() == [0, 2, 4]
        assert (out["sample_status"] == "ok").all()
        assert all(len(bytes(f)) == 32 for f in out["frame"])

    def test_unstubbed_decode_is_error_value(self, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.multimodal import FrameSampleActor

        p = pa.table({
            "conv_id": pa.array(["c1"], pa.string()),
            "turn_idx": pa.array([0], pa.int32()),
            "payload_id": pa.array(["v1"], pa.string()),
            "payload": pa.array([b"x"], pa.binary()),
        })
        out = FrameSampleActor(fake=False)(p)
        assert out["sample_status"][0].as_py().startswith("error:")
        assert out["frame_idx"][0].as_py() == -1


class TestMultimodal:
    def test_payload_features_deterministic_and_shaped(self, tiny_fixture, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.multimodal import (
            FEATURE_DIM,
            payload_features,
        )

        _t, p = tiny_fixture
        out1 = payload_features(rd.from_arrow(p)).to_pandas().sort_values(
            ["conv_id", "turn_idx", "payload_id"]).reset_index(drop=True)
        out2 = payload_features(rd.from_arrow(p)).to_pandas().sort_values(
            ["conv_id", "turn_idx", "payload_id"]).reset_index(drop=True)
        assert len(out1) == p.num_rows
        assert all(len(f) == FEATURE_DIM for f in out1["feature"])
        assert (out1["decode_status"] == "ok").all()
        for a, b in zip(out1["feature"], out2["feature"]):
            assert list(a) == list(b)
        # n_bytes matches the raw payload sizes
        exp_sizes = [len(b) for b in p.column("payload").to_pylist()]
        assert sorted(out1["n_bytes"].tolist()) == sorted(exp_sizes)


class TestCodecProbe:
    def test_probe_returns_none_without_codecs(self):
        """In this container no codec exists: the probe must say so and
        the default (fake=None) actor must resolve to the fake path."""
        from mistralocr_pdf2md_translator_ray.stages.multimodal import (
            FrameSampleActor,
            ImageResizeActor,
            PayloadFeatureActor,
            probe_image_codec,
            probe_video_codec,
        )

        has_pil = probe_image_codec() is not None
        has_av = probe_video_codec() is not None
        assert PayloadFeatureActor()._fake == (not has_pil)
        assert ImageResizeActor()._fake == (not has_pil)
        assert FrameSampleActor()._fake == (not has_av)

    def test_real_decode_when_pil_available(self):
        """Availability-guarded real path: PNG decodes to a 32-float
        thumbnail and resize emits a real PNG (skips without Pillow)."""
        PIL_Image = pytest.importorskip("PIL.Image")
        import io

        from mistralocr_pdf2md_translator_ray.stages.multimodal import (
            ImageResizeActor,
            PayloadFeatureActor,
        )

        buf = io.BytesIO()
        PIL_Image.new("RGB", (20, 10), (128, 64, 32)).save(buf, format="PNG")
        png = buf.getvalue()

        decoded = PayloadFeatureActor(fake=False)._decode(png)
        assert decoded.shape == (32,)
        assert 0.0 <= decoded.min() and decoded.max() <= 1.0

        resized = ImageResizeActor(width=4, height=4, fake=False)._resize(png)
        img = PIL_Image.open(io.BytesIO(resized))
        assert img.size == (4, 4)


class TestAdaptiveBranches:
    """Force the past-the-gate paths (distributed anti-join removal,
    range-sorted verify) and the non-convergence warning — at test
    scale these would otherwise never run."""

    def test_antijoin_removal_matches_broadcast(self, dup_dir, ray_session,
                                                monkeypatch):
        from mistralocr_pdf2md_translator_ray.stages import dedup as dd

        baseline = sorted(r["doc_id"] for r in dd.dedup_minhash(dup_dir).take_all())
        monkeypatch.setattr(dd, "_BROADCAST_REMOVED_MAX", 0)
        got = sorted(r["doc_id"] for r in dd.dedup_minhash(dup_dir).take_all())
        assert got == baseline == [0, 3, 4]

    def test_forced_verify_sort_matches(self, dup_dir, ray_session,
                                        monkeypatch):
        from mistralocr_pdf2md_translator_ray.stages import dedup as dd

        baseline = sorted(r["doc_id"] for r in dd.dedup_minhash(dup_dir).take_all())
        monkeypatch.setattr(dd, "_VERIFY_SORT_MIN_PAIRS", 0)
        got = sorted(r["doc_id"] for r in dd.dedup_minhash(dup_dir).take_all())
        assert got == baseline

    def test_forced_bucketed_pair_dedupe_matches(self, dup_dir, ray_session,
                                                 monkeypatch):
        from mistralocr_pdf2md_translator_ray.stages import dedup as dd

        baseline = sorted(r["doc_id"] for r in dd.dedup_minhash(dup_dir).take_all())
        monkeypatch.setattr(dd, "_SMALL_PAIRS_MAX", 0)
        got = sorted(r["doc_id"] for r in dd.dedup_minhash(dup_dir).take_all())
        assert got == baseline

    def test_label_propagation_warns_on_non_convergence(self, ray_session):
        import warnings

        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            _removed_by_label_propagation,
        )

        chain = [(i, i + 1) for i in range(6)]  # diameter > 1 round
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _removed_by_label_propagation(chain, num_buckets=2, max_iters=1)
        assert any("fixpoint" in str(w.message) for w in caught)


class TestDedupSpans:
    """Sub-document span dedup: Ray pipeline vs a straightforward
    global-seen-set reference (first occurrence = min (doc_id,
    span_idx)), planted duplicates, and the empty-document contract."""

    @staticmethod
    def _reference(docs, span_tokens):
        seen, out = set(), {}
        for doc_id, text in sorted(docs):
            toks = text.split() if text else []
            kept = []
            n = -(-len(toks) // span_tokens) if toks else 0
            for i in range(0, len(toks), span_tokens):
                s = " ".join(toks[i:i + span_tokens])
                if s in seen:
                    continue
                seen.add(s)
                kept.append(s)
            out[doc_id] = (" ".join(kept), len(kept), n - len(kept))
        return out

    def test_matches_reference_on_sf0001(self, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_spans

        sf = "/root/testdata/sf0.001"
        got = dedup_spans(sf, span_tokens=8).to_pandas()
        src = pq.read_table(f"{sf}/documents.parquet",
                            columns=["doc_id", "text"])
        ref = self._reference(
            list(zip(src["doc_id"].to_pylist(), src["text"].to_pylist())), 8)
        assert len(got) == src.num_rows
        for _, r in got.iterrows():
            exp = ref[r["doc_id"]]
            assert (r["text_deduped"], r["n_spans_kept"],
                    r["n_spans_dropped"]) == exp, r["doc_id"]
        # the synthetic corpus genuinely contains cross-doc duplicates
        assert got["n_spans_dropped"].sum() > 0

    def test_planted_duplicates_and_empty_doc(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_spans

        w = 4
        run = "alpha beta gamma delta"          # exactly one window
        uniq1 = "one two three four"
        uniq2 = "five six seven eight"
        docs = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": [f"{run} {uniq1}",           # first owner of `run`
                     f"{run} {uniq2} {run}",     # cross-doc + in-doc repeat
                     run],                        # fully deduplicated
        })
        d = tmp_path / "spans"
        d.mkdir()
        pq.write_table(docs, str(d / "documents.parquet"))
        got = {r["doc_id"]: r
               for r in dedup_spans(str(d), span_tokens=w).take_all()}
        assert got[1]["text_deduped"] == f"{run} {uniq1}"
        assert got[1]["n_spans_dropped"] == 0
        # doc 2 loses BOTH copies of the run (cross-doc and its repeat)
        assert got[2]["text_deduped"] == uniq2
        assert got[2]["n_spans_dropped"] == 2
        # doc 3 survives as an (empty) row — documents never vanish
        assert got[3]["text_deduped"] == "" and got[3]["n_spans_kept"] == 0

    def test_deterministic(self, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_spans

        sf = "/root/testdata/sf0.001"
        a = dedup_spans(sf, span_tokens=8).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        b = dedup_spans(sf, span_tokens=8).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        import pandas as pd
        pd.testing.assert_frame_equal(a, b)


class TestImageDhash:
    """Perceptual dHash + near-dup image removal: kernel invariances,
    real-PNG dedup through the stdlib codec rung, fake-rung exact-dup
    degradation, and the error-row isolation contract."""

    def _img(self, seed, shape=(24, 32, 3)):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, shape, dtype=np.uint8)

    def test_kernel_invariances(self):
        from mistralocr_pdf2md_translator_ray.functions.png import (
            decode_png,
            dhash64,
            encode_png,
            to_gray,
        )

        img = self._img(1)
        h = dhash64(to_gray(img))
        assert 0 <= h < 1 << 64
        # uniform brightness shift flips no gradient bits
        shifted = np.clip(img.astype(np.int16) + 15, 0, 255).astype(np.uint8)
        assert dhash64(to_gray(shifted)) == h
        # PNG encode/decode round trip is exact
        assert dhash64(to_gray(decode_png(encode_png(img)))) == h
        # a genuinely different image is far (this pair: hamming ~31)
        h2 = dhash64(to_gray(self._img(2)))
        assert bin(h ^ h2).count("1") > 8

    def test_offgrid_edit_is_invisible(self):
        """Nearest-neighbor 9x8 sampling reads specific source pixels;
        editing any OTHER pixel leaves the hash bit-identical — the
        planted-near-dup construction the pipeline test relies on."""
        from mistralocr_pdf2md_translator_ray.functions.png import (
            dhash64,
            resize_nearest,
            to_gray,
        )

        img = self._img(3)
        h, w = img.shape[:2]
        ys = set(np.minimum(((np.arange(8) + 0.5) * h / 8).astype(int), h - 1))
        xs = set(np.minimum(((np.arange(9) + 0.5) * w / 9).astype(int), w - 1))
        edited = img.copy()
        for y in range(h):
            if y not in ys:
                edited[y, :, :] = 255 - edited[y, :, :]  # wreck whole rows
        assert dhash64(to_gray(edited)) == dhash64(to_gray(img))

    @staticmethod
    def _payload_table(rows):
        return pa.table({
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "payload_id": pa.array([r[2] for r in rows], pa.string()),
            "kind": pa.array(["figure"] * len(rows), pa.string()),
            "payload": pa.array([r[3] for r in rows], pa.binary()),
        })

    def test_real_png_neardup_removal(self, ray_session):
        from mistralocr_pdf2md_translator_ray.functions.png import encode_png
        from mistralocr_pdf2md_translator_ray.stages.multimodal import (
            neardup_images,
        )

        img = self._img(4)
        h, w = img.shape[:2]
        ys = set(np.minimum(((np.arange(8) + 0.5) * h / 8).astype(int), h - 1))
        near = img.copy()
        for y in range(h):
            if y not in ys:
                near[y] = 255 - near[y]
        other = self._img(5)
        tbl = self._payload_table([
            ("c1", 1, "p1", encode_png(img)),
            ("c1", 2, "p2", encode_png(near)),   # same sampled grid
            ("c2", 1, "p3", encode_png(other)),
        ])
        kept = neardup_images(rd.from_arrow(tbl)).to_pandas()
        ids = set(kept["payload_id"])
        assert "p3" in ids
        assert len(ids & {"p1", "p2"}) == 1  # exactly one of the pair
        assert len(kept) == 2
        assert set(kept["decode_status"]) == {"ok"}
        # dhash survives the cogroup at full 64-bit precision (a null-
        # coerced float64 column would corrupt values above 2^53) and
        # the key columns keep their types
        from mistralocr_pdf2md_translator_ray.stages.multimodal import (
            payload_dhash,
        )

        assert kept["dhash"].dtype == np.int64
        assert kept["turn_idx"].dtype == np.int32
        truth = payload_dhash(rd.from_arrow(tbl)).to_pandas() \
            .set_index("payload_id")["dhash"]
        for _, r in kept.iterrows():
            assert r["dhash"] == truth[r["payload_id"]]

    def test_fake_rung_exact_dup_only(self, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.multimodal import (
            neardup_images,
        )

        blob = b'{"kind": "receipt", "total": 1.0}'
        tbl = self._payload_table([
            ("c1", 1, "p1", blob),
            ("c1", 2, "p2", blob),                 # byte-identical
            ("c2", 1, "p3", b'{"kind": "receipt", "total": 2.0}'),
        ])
        kept = neardup_images(rd.from_arrow(tbl), fake=True).to_pandas()
        ids = set(kept["payload_id"])
        assert "p3" in ids and len(ids & {"p1", "p2"}) == 1

    def test_error_rows_never_cluster(self, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.multimodal import (
            neardup_images,
            payload_dhash,
        )

        tbl = self._payload_table([
            ("c1", 1, "p1", b"not a png"),
            ("c1", 2, "p2", b"also not a png"),
        ])
        hashed = payload_dhash(rd.from_arrow(tbl), fake=False).to_pandas()
        assert all(s.startswith("error") for s in hashed["decode_status"])
        kept = neardup_images(rd.from_arrow(tbl), fake=False).to_pandas()
        # both error rows share hash 0 but are excluded from banding
        assert len(kept) == 2
        # kept-because-undecodable rows are distinguishable downstream
        assert all(s.startswith("error") for s in kept["decode_status"])


class TestDedupSpansProperty:
    """Randomized corpora with a tiny vocabulary (forcing heavy span
    collisions) must match the global-seen-set reference exactly."""

    @staticmethod
    def _write(tmpdir, docs):
        t = pa.table({
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([x for _, x in docs], pa.string()),
        })
        pq.write_table(t, f"{tmpdir}/documents.parquet")

    def test_random_small_vocab_corpora(self, tmp_path, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_spans

        rng = np.random.default_rng(17)
        vocab = ["a", "bb", "ccc", "dd"]
        for trial in range(3):
            w = int(rng.integers(2, 5))
            docs = []
            for i in range(int(rng.integers(5, 25))):
                n = int(rng.integers(0, 30))
                docs.append((i, " ".join(rng.choice(vocab, n).tolist())))
            d = tmp_path / f"t{trial}"
            d.mkdir()
            self._write(str(d), docs)
            got = {r["doc_id"]: r
                   for r in dedup_spans(str(d), span_tokens=w).take_all()}
            ref = TestDedupSpans._reference(docs, w)
            assert len(got) == len(docs)
            for doc_id, exp in ref.items():
                r = got[doc_id]
                assert (r["text_deduped"], r["n_spans_kept"],
                        r["n_spans_dropped"]) == exp, (trial, w, doc_id)


    def test_hot_span_skew(self, tmp_path, ray_session):
        """A boilerplate span present in EVERY document (the hot-hash
        regime the batch-local pre-combine exists for): result must
        still match the global-seen-set reference exactly."""
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_spans

        w = 4
        boiler = "all rights reserved legal"  # exactly one w-token span
        docs = []
        for i in range(40):
            uniq = f"u{i}a u{i}b u{i}c u{i}d"
            docs.append((i, f"{boiler} {uniq} {boiler}"))
        d = tmp_path / "hot"
        d.mkdir()
        self._write(str(d), docs)
        got = {r["doc_id"]: r
               for r in dedup_spans(str(d), span_tokens=w).take_all()}
        ref = TestDedupSpans._reference(docs, w)
        for doc_id, exp in ref.items():
            r = got[doc_id]
            assert (r["text_deduped"], r["n_spans_kept"],
                    r["n_spans_dropped"]) == exp, doc_id
        # doc 0 keeps one boiler copy; every other doc drops both
        assert got[0]["n_spans_dropped"] == 1
        assert all(got[i]["n_spans_dropped"] == 2 for i in range(1, 40))


class TestNeardupClusters:
    """cluster_labels (the assignment view): union-find parity on both
    adaptive paths, and consistency with dedup_minhash's kept set."""

    def _pairs_ds(self, pairs):
        a = np.array([p[0] for p in pairs], np.int64)
        b = np.array([p[1] for p in pairs], np.int64)
        return rd.from_arrow(pa.table({"a": pa.array(a), "b": pa.array(b)}))

    @pytest.mark.parametrize("force_propagation", [False, True])
    def test_matches_union_find(self, ray_session, monkeypatch,
                                force_propagation):
        from mistralocr_pdf2md_translator_ray.stages import dedup as dd

        if force_propagation:
            monkeypatch.setattr(dd, "_UNION_FIND_MAX_PAIRS", 0)
        for pairs in TestClustering.CASES:
            roots = dd._union_find(pairs)
            got = {r["doc_id"]: r["cluster_id"]
                   for r in dd.cluster_labels(self._pairs_ds(pairs)).take_all()}
            assert got == roots, (force_propagation, pairs)

    def test_empty_pairs(self, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import cluster_labels

        got = cluster_labels(self._pairs_ds([])).take_all()
        assert got == []

    def test_consistent_with_dedup_minhash(self, dup_dir, ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            dedup_minhash,
            neardup_clusters,
        )

        clusters = neardup_clusters(dup_dir).to_pandas()
        kept = sorted(r["doc_id"] for r in dedup_minhash(dup_dir).take_all())
        # planted: docs 0,1,2 are one near-dup cluster rooted at 0
        assert set(clusters["doc_id"]) == {0, 1, 2}
        assert set(clusters["cluster_id"]) == {0}
        # removal view == clustered minus the cluster minima
        removed = set(clusters.loc[
            clusters["doc_id"] != clusters["cluster_id"], "doc_id"])
        assert sorted(set([0, 1, 2, 3, 4]) - removed) == kept


class TestHammingComponentPairs:
    """Star + representative edges must produce IDENTICAL connected
    components (hence identical removal sets) to the naive all-pairs
    generator, at O(n + |U|^2) per bucket."""

    @staticmethod
    def _naive(sub, max_hamming):
        from mistralocr_pdf2md_translator_ray.functions.dedup import hamming64

        rows = sorted(set(zip((int(x) for x in sub["doc_id"]),
                              (int(h) for h in sub["simhash"]))))
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                ha = int(np.int64(rows[i][1]).astype(np.uint64))
                hb = int(np.int64(rows[j][1]).astype(np.uint64))
                if rows[i][0] != rows[j][0] and \
                        hamming64(ha, hb) <= max_hamming:
                    yield rows[i][0], rows[j][0]

    def test_components_match_naive_on_random_buckets(self):
        import pandas as pd

        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            _hamming_component_pairs,
            _union_find,
        )

        rng = np.random.default_rng(29)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            # few distinct hashes -> large identical groups + near pairs
            base = rng.integers(0, 1 << 16, size=4).astype(np.int64)
            hashes = base[rng.integers(0, 4, size=n)]
            flip = rng.integers(0, 2, size=n).astype(bool)
            hashes = np.where(flip, hashes ^ 1, hashes)  # 1-bit variants
            sub = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                                "simhash": hashes})
            for k in (0, 1, 3):
                fast = list(_hamming_component_pairs(sub, k))
                naive = list(self._naive(sub, k))
                rf = _union_find(fast)
                rn = _union_find(naive)
                nodes = set(rf) | set(rn)
                comp_f = {d: rf.get(d, d) for d in nodes}
                comp_n = {d: rn.get(d, d) for d in nodes}
                assert comp_f == comp_n, (trial, k)

    def test_identical_group_emits_linear_edges(self):
        import pandas as pd

        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            _hamming_component_pairs,
        )

        n = 500
        sub = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                            "simhash": np.zeros(n, dtype=np.int64)})
        pairs = list(_hamming_component_pairs(sub, 3))
        assert len(pairs) == n - 1  # one star, not n*(n-1)/2
        assert all(a == 0 for a, _ in pairs)

    def test_dedup_simhash_unchanged_on_dup_corpus(self, dup_dir,
                                                   ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            dedup_simhash,
        )

        kept = sorted(r["doc_id"] for r in dedup_simhash(dup_dir).take_all())
        # same as the pre-optimization result: the exact dup (1)
        # collapses into 0; the 1-word-changed doc 2 is >3 bits away
        # and survives (premise verified in TestDedupDetectors)
        assert kept == [0, 2, 3, 4]


class TestDedupSpansEmptyDocs:
    def test_all_empty_docs_schema_stable(self, tmp_path, ray_session):
        """A corpus of only empty/whitespace documents: the explode
        emits zero spans but must keep STRING-typed h/span blocks (an
        Arrow 'null'-typed empty block next to string blocks is the
        schema mismatch _ensure_pair_schema guards elsewhere)."""
        from mistralocr_pdf2md_translator_ray.stages.dedup import dedup_spans

        t = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["", "   ", ""], pa.string()),
        })
        d = tmp_path / "empty_docs"
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"))
        got = {r["doc_id"]: r for r in dedup_spans(str(d)).take_all()}
        assert len(got) == 3
        for i in (1, 2, 3):
            assert got[i]["text_deduped"] == ""
            assert got[i]["n_spans_kept"] == 0
            assert got[i]["n_spans_dropped"] == 0


class TestZeroVectorSafety:
    """Zero-norm embeddings (the deterministic embedder emits them for
    sub-n-gram texts) must not produce NaN scores/assignments, must not
    collide into one quadratic LSH bucket, and are always kept by
    embedding near-dup (cosine undefined -> never a candidate)."""

    def _emb_dir(self, tmp_path, n_zero=5):
        rng = np.random.default_rng(3)
        good = rng.standard_normal((20, 8))
        good[1] = good[0]  # one exact dup pair among the real vectors
        M = np.vstack([good, np.zeros((n_zero, 8))])
        d = tmp_path / "z"
        d.mkdir()
        pq.write_table(pa.table({
            "vec_id": pa.array(np.arange(len(M)), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(M.astype(np.float32).ravel(), pa.float32()), 8),
        }), str(d / "embeddings.parquet"))
        return str(d), len(M)

    def test_neardup_embedding_keeps_zero_vectors(self, tmp_path,
                                                  ray_session):
        from mistralocr_pdf2md_translator_ray.stages.dedup import (
            neardup_embedding,
        )

        d, n = self._emb_dir(tmp_path)
        kept = sorted(r["doc_id"]
                      for r in neardup_embedding(d, threshold=0.95).take_all())
        assert 1 not in kept            # the planted dup still drops
        assert 0 in kept
        for z in range(20, n):          # every zero vector kept
            assert z in kept

    def test_ivf_assignment_has_no_nan(self, tmp_path, ray_session):
        import os

        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            build_ivf_index,
            knn_cosine_ivf_indexed,
        )

        d, n = self._emb_dir(tmp_path)
        idx = str(tmp_path / "zidx")
        build_ivf_index(d, idx, n_centroids=4, seed=5)
        part_rows = sum(
            pq.ParquetFile(os.path.join(r, f)).metadata.num_rows
            for r, _, fs in os.walk(idx) for f in fs
            if f.endswith(".parquet"))
        assert part_rows == n           # zero vectors landed somewhere

        qt = pq.read_table(os.path.join(d, "embeddings.parquet"),
                           filters=[("vec_id", "==", 0)])
        qv = np.asarray(qt["embedding"][0].as_py(), dtype=np.float64)
        res = knn_cosine_ivf_indexed(idx, qv, nprobe=4,
                                     exclude_vec_id=0).to_pandas()
        assert not res["score"].isna().any()
        assert res.iloc[0]["vec_id"] == 1   # the exact dup tops the list


class TestIvfAppendCrashRetry:
    def test_retry_after_partial_append_is_idempotent(self, tmp_path,
                                                      ray_session,
                                                      monkeypatch):
        """Simulate 'crashed after the partition move, before the meta
        write' by undoing the meta record: the retry must purge and
        re-move the same tagged files, leaving exactly one copy of
        every appended vector (and re-appending a folded shard is
        rejected). The meta is the keystone of that protocol, so its
        tmp file must be fsynced before the rename."""
        import json
        import os

        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            append_to_ivf_index,
            build_ivf_index,
        )

        rng = np.random.default_rng(7)
        M = rng.standard_normal((30, 8))
        old_dir, new_dir = tmp_path / "co", tmp_path / "cn"
        old_dir.mkdir(), new_dir.mkdir()

        def write(d, ids, rows):
            pq.write_table(pa.table({
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(rows.astype(np.float32).ravel(),
                             pa.float32()), 8),
            }), str(d / "embeddings.parquet"))

        write(old_dir, list(range(20)), M[:20])
        write(new_dir, list(range(20, 30)), M[20:])

        idx = str(tmp_path / "cidx")
        build_ivf_index(str(old_dir), idx, n_centroids=4, seed=5)
        meta_tmp = os.path.join(idx, "meta.json.tmp")
        synced = []
        real_fsync = os.fsync

        def fsync_spy(fd):
            if os.path.exists(meta_tmp):
                synced.append(os.path.samestat(os.fstat(fd), os.stat(meta_tmp)))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_spy)
        append_to_ivf_index(str(new_dir), idx)
        assert any(synced), "meta.json was replaced without an fsync"

        def total_rows():
            return sum(
                pq.ParquetFile(os.path.join(r, f)).metadata.num_rows
                for r, _, fs in os.walk(idx) for f in fs
                if f.endswith(".parquet"))

        assert total_rows() == 30
        # undo only the meta record (= crash before the meta write)
        meta_p = os.path.join(idx, "meta.json")
        meta = json.load(open(meta_p))
        meta["appended_paths"].pop()
        json.dump(meta, open(meta_p, "w"))
        append_to_ivf_index(str(new_dir), idx)
        assert total_rows() == 30          # no double-append
        with pytest.raises(ValueError, match="already in the index"):
            append_to_ivf_index(str(new_dir), idx)

    def test_index_without_meta_is_refused(self, tmp_path, ray_session):
        """An index written before meta.json existed has no duplicate or
        crash-retry guard. Appending to it is refused with the remedy,
        and nothing in the index is written."""
        import os

        from mistralocr_pdf2md_translator_ray.stages.similarity import (
            append_to_ivf_index,
            build_ivf_index,
        )

        M = np.random.default_rng(3).standard_normal((16, 8))
        for name, lo, hi in (("po", 0, 12), ("pn", 12, 16)):
            (tmp_path / name).mkdir()
            pq.write_table(pa.table({
                "vec_id": pa.array(range(lo, hi), pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(M[lo:hi].astype(np.float32).ravel(),
                             pa.float32()), 8),
            }), str(tmp_path / name / "embeddings.parquet"))
        idx = str(tmp_path / "pidx")
        build_ivf_index(str(tmp_path / "po"), idx, n_centroids=2, seed=5)
        os.remove(os.path.join(idx, "meta.json"))  # the old format
        before = sorted(os.path.join(r, f)
                        for r, _, fs in os.walk(idx) for f in fs)
        with pytest.raises(ValueError,
                           match="rebuild with build_ivf_index"):
            append_to_ivf_index(str(tmp_path / "pn"), idx)
        assert sorted(os.path.join(r, f)
                      for r, _, fs in os.walk(idx) for f in fs) == before
