package main

import (
	"errors"
	"fmt"

	"smartrpc/internal/core"
	"smartrpc/internal/types"
)

// Type ids of the benchmark's own schema.
const (
	treeNodeType  types.ID = 1
	indexNodeType types.ID = 2
)

// newRegistry builds the benchmark schema: the paper's 16-byte tree node
// (two pointers and 8 bytes of data on the 32-bit profile) and a
// 24-byte search-tree node carrying a key and a value.
func newRegistry() (*types.Registry, error) {
	r := types.NewRegistry()
	if err := r.Register(&types.Desc{
		ID:   treeNodeType,
		Name: "TreeNode",
		Fields: []types.Field{
			{Name: "left", Kind: types.Ptr, Elem: treeNodeType},
			{Name: "right", Kind: types.Ptr, Elem: treeNodeType},
			{Name: "data", Kind: types.Int64},
		},
	}); err != nil {
		return nil, err
	}
	if err := r.Register(&types.Desc{
		ID:   indexNodeType,
		Name: "IndexNode",
		Fields: []types.Field{
			{Name: "left", Kind: types.Ptr, Elem: indexNodeType},
			{Name: "right", Kind: types.Ptr, Elem: indexNodeType},
			{Name: "key", Kind: types.Int64},
			{Name: "val", Kind: types.Int64},
		},
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// levelsOf returns k for a complete tree of n = 2^k - 1 nodes.
func levelsOf(n int) (int, error) {
	k := 0
	for (1<<(k+1))-1 <= n {
		k++
	}
	if n <= 0 || (1<<k)-1 != n {
		return 0, fmt.Errorf("tree size %d is not 2^k-1", n)
	}
	return k, nil
}

// buildTree allocates a complete binary tree in rt's heap in preorder;
// node i (preorder) holds data[i]. It returns the root and every node's
// pointer, indexed by preorder position.
func buildTree(rt *core.Runtime, data []int64) (core.Value, []core.Value, error) {
	levels, err := levelsOf(len(data))
	if err != nil {
		return core.Value{}, nil, err
	}
	nodes := make([]core.Value, 0, len(data))
	var build func(level int) (core.Value, error)
	build = func(level int) (core.Value, error) {
		if level == 0 {
			return core.NullPtr(treeNodeType), nil
		}
		v, err := rt.NewObject(treeNodeType)
		if err != nil {
			return core.Value{}, err
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return core.Value{}, err
		}
		if err := ref.SetInt("data", 0, data[len(nodes)]); err != nil {
			return core.Value{}, err
		}
		nodes = append(nodes, v)
		for _, side := range []string{"left", "right"} {
			c, err := build(level - 1)
			if err != nil {
				return core.Value{}, err
			}
			if err := ref.SetPtr(side, 0, c); err != nil {
				return core.Value{}, err
			}
		}
		return v, nil
	}
	root, err := build(levels)
	return root, nodes, err
}

// buildIndex allocates a balanced binary search tree over sorted keys in
// rt's heap (preorder), with vals[i] stored beside keys[i].
func buildIndex(rt *core.Runtime, keys, vals []int64) (core.Value, error) {
	if len(keys) == 0 || len(keys) != len(vals) {
		return core.Value{}, errors.New("index needs matching non-empty keys and values")
	}
	var build func(lo, hi int) (core.Value, error)
	build = func(lo, hi int) (core.Value, error) {
		if lo >= hi {
			return core.NullPtr(indexNodeType), nil
		}
		mid := (lo + hi) / 2
		v, err := rt.NewObject(indexNodeType)
		if err != nil {
			return core.Value{}, err
		}
		ref, err := rt.Deref(v)
		if err != nil {
			return core.Value{}, err
		}
		if err := ref.SetInt("key", 0, keys[mid]); err != nil {
			return core.Value{}, err
		}
		if err := ref.SetInt("val", 0, vals[mid]); err != nil {
			return core.Value{}, err
		}
		l, err := build(lo, mid)
		if err != nil {
			return core.Value{}, err
		}
		if err := ref.SetPtr("left", 0, l); err != nil {
			return core.Value{}, err
		}
		r, err := build(mid+1, hi)
		if err != nil {
			return core.Value{}, err
		}
		return v, ref.SetPtr("right", 0, r)
	}
	return build(0, len(keys))
}

// splitmix is the SplitMix64 step, the benchmark's stateless mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// foldHash folds one visited value into an order-sensitive checksum.
func foldHash(h uint64, d int64) uint64 { return (h ^ uint64(d)) * 0x100000001b3 }
