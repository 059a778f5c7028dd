"""Annoy-style approximate store: a forest of random-hyperplane trees.

Each tree recursively splits the vectors with a hyperplane through the
midpoint of two randomly chosen points (the split rule Annoy uses).  A query
descends each tree with a priority queue ordered by margin, gathering
candidate leaves until a candidate budget (``search_k``) is met, and the
candidates are re-ranked exactly.  This reproduces the accuracy/latency
trade-off of the store the paper deploys (§2.2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.exceptions import VectorStoreError
from repro.utils.linalg import normalize_vector
from repro.utils.rng import ensure_rng
from repro.vectorstore.base import VectorStore


@dataclass
class _TreeNode:
    """One node of a random-projection tree."""

    # Leaf payload: indices of the vectors stored at this node.
    items: "np.ndarray | None" = None
    # Internal-node payload: splitting hyperplane and children indices.
    normal: "np.ndarray | None" = None
    offset: float = 0.0
    left: int = -1
    right: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.items is not None


class RandomProjectionForest(VectorStore):
    """Approximate maximum-inner-product store built from random-split trees."""

    def __init__(
        self,
        vectors: np.ndarray,
        tree_count: int = 8,
        leaf_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(vectors)
        if tree_count < 1:
            raise VectorStoreError("tree_count must be >= 1")
        if leaf_size < 2:
            raise VectorStoreError("leaf_size must be >= 2")
        self.tree_count = int(tree_count)
        self.leaf_size = int(leaf_size)
        self.seed = int(seed)
        rng = ensure_rng(seed)
        self._trees: list[list[_TreeNode]] = [
            self._build_tree(rng) for _ in range(self.tree_count)
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_tree(self, rng: np.random.Generator) -> "list[_TreeNode]":
        nodes: list[_TreeNode] = []
        all_items = np.arange(len(self), dtype=np.int64)
        self._split_recursive(all_items, rng, nodes)
        return nodes

    def _split_recursive(
        self, items: np.ndarray, rng: np.random.Generator, nodes: "list[_TreeNode]"
    ) -> int:
        node_index = len(nodes)
        nodes.append(_TreeNode())
        if items.size <= self.leaf_size:
            nodes[node_index].items = items
            return node_index
        normal, offset = self._choose_hyperplane(items, rng)
        margins = self._vectors[items] @ normal - offset
        left_mask = margins <= 0
        left_items = items[left_mask]
        right_items = items[~left_mask]
        if left_items.size == 0 or right_items.size == 0:
            # Degenerate split (e.g. duplicated vectors): fall back to a
            # random balanced split so the recursion always terminates.
            shuffled = items.copy()
            rng.shuffle(shuffled)
            half = shuffled.size // 2
            left_items, right_items = shuffled[:half], shuffled[half:]
        node = nodes[node_index]
        node.normal = normal
        node.offset = offset
        node.left = self._split_recursive(left_items, rng, nodes)
        node.right = self._split_recursive(right_items, rng, nodes)
        return node_index

    def _choose_hyperplane(
        self, items: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        """Hyperplane through the midpoint of two random distinct points."""
        first, second = rng.choice(items, size=2, replace=False)
        point_a = self._vectors[first]
        point_b = self._vectors[second]
        normal = normalize_vector(point_a - point_b)
        if not np.any(normal):
            normal = normalize_vector(rng.standard_normal(self.dim))
        midpoint = (point_a + point_b) / 2.0
        offset = float(normal @ midpoint)
        return normal, offset

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search_arrays(
        self,
        query: np.ndarray,
        k: int,
        exclude_mask: "np.ndarray | None" = None,
        search_k: "int | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        if k < 1:
            raise VectorStoreError(f"k must be >= 1, got {k}")
        query = self._check_query(query)
        excluded_count = 0 if exclude_mask is None else int(np.count_nonzero(exclude_mask))
        # Over-fetch candidates so exclusions do not starve the result list.
        budget = search_k if search_k is not None else max(64, self.tree_count * k * 8)
        budget += excluded_count
        candidates = self._candidates(query, budget)
        if excluded_count and candidates.size:
            candidates = candidates[~exclude_mask[candidates]]
        if candidates.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        scores = self._vectors[candidates] @ query
        order = np.argsort(-scores)[:k]
        return candidates[order], scores[order]

    def _candidates(self, query: np.ndarray, budget: int) -> np.ndarray:
        """Gather candidate vector ids from all trees with a margin-ordered queue."""
        collected: set[int] = set()
        # Heap entries: (priority, tie_breaker, tree_index, node_index).
        heap: list[tuple[float, int, int, int]] = []
        counter = 0
        for tree_index in range(self.tree_count):
            heapq.heappush(heap, (0.0, counter, tree_index, 0))
            counter += 1
        while heap and len(collected) < budget:
            _, _, tree_index, node_index = heapq.heappop(heap)
            node = self._trees[tree_index][node_index]
            if node.is_leaf:
                collected.update(int(item) for item in node.items)
                continue
            margin = float(query @ node.normal - node.offset)
            near, far = (node.left, node.right) if margin <= 0 else (node.right, node.left)
            heapq.heappush(heap, (0.0, counter, tree_index, near))
            counter += 1
            heapq.heappush(heap, (abs(margin), counter, tree_index, far))
            counter += 1
        return np.fromiter(collected, dtype=np.int64, count=len(collected))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def recall_against_exact(
        self, queries: np.ndarray, k: int = 10, search_k: "int | None" = None
    ) -> float:
        """Average top-``k`` recall of the forest against an exact scan.

        Used by tests and the store-accuracy experiment to confirm the
        approximate index only loses a small amount of accuracy, the paper's
        observation when comparing Annoy with an exact scan.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        total = 0.0
        for query in queries:
            exact_scores = self._vectors @ query
            exact_top = set(np.argsort(-exact_scores)[:k].tolist())
            approx_ids, _ = self.search_arrays(query, k=k, search_k=search_k)
            total += len(exact_top & set(approx_ids.tolist())) / max(1, len(exact_top))
        return total / queries.shape[0]
