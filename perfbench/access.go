package main

import (
	"smartrpc/internal/core"
)

// acc performs the Ref accesses of one workload body (a remote
// procedure or a client session). Untraced it is a plain pass-through;
// in a traced phase it records every accessor call during which the
// space's fault counter advanced as an "access" span, the time to the
// first access, and the distinct nodes dereferenced.
type acc struct {
	rt    *core.Runtime
	rec   *recorder
	f     *flow
	base  int64 // start of the body
	first int64 // first access return, relative to base; 0 until then
}

func newAcc(rt *core.Runtime, rec *recorder, f *flow) acc {
	a := acc{rt: rt, rec: rec, f: f}
	if rec != nil {
		a.base = rec.p.now()
	}
	return a
}

// mark is the state saved before one traced accessor call.
type mark struct {
	id, parent int64
	faults     uint64
	t          int64
}

func (a *acc) begin() mark {
	m := mark{id: a.rec.id(), parent: a.f.top.Load(), faults: a.rt.Space().Faults(), t: a.rec.p.now()}
	a.f.top.Store(m.id)
	return m
}

func (a *acc) end(m mark) {
	a.f.top.Store(m.parent)
	if a.first == 0 || a.rt.Space().Faults() != m.faults {
		t := a.rec.p.now()
		if a.first == 0 {
			a.first = t - a.base
		}
		if a.rt.Space().Faults() != m.faults {
			a.rec.add(span{ID: m.id, Parent: m.parent, Session: a.f.sess.Load(),
				Name: "access", Space: a.rt.ID(), Start: m.t, End: t})
		}
	}
}

func (a *acc) deref(v core.Value) (core.Ref, error) {
	if a.rec != nil {
		a.f.seen[v.LP] = struct{}{}
	}
	return a.rt.Deref(v)
}

func (a *acc) int(r *core.Ref, field string) (int64, error) {
	if a.rec == nil {
		return r.Int(field, 0)
	}
	m := a.begin()
	v, err := r.Int(field, 0)
	a.end(m)
	return v, err
}

func (a *acc) setInt(r *core.Ref, field string, v int64) error {
	if a.rec == nil {
		return r.SetInt(field, 0, v)
	}
	m := a.begin()
	err := r.SetInt(field, 0, v)
	a.end(m)
	return err
}

func (a *acc) ptr(r *core.Ref, field string) (core.Value, error) {
	if a.rec == nil {
		return r.Ptr(field, 0)
	}
	m := a.begin()
	v, err := r.Ptr(field, 0)
	a.end(m)
	return v, err
}
