package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/proof"
	"repro/internal/serve"
)

// The traced run's standalone calls. Each times one public call of one
// layer, on one goroutine, on the inputs the workload submitted. Standalone
// spans carry negative operation ids: they belong to no timed operation.

var sinkFP uint64 // keeps fingerprint calls from being optimised away

// storeLayers opens the durable logs the run left behind, on a copy.
func (b *bench) storeLayers(m metrics) error {
	m.set("store.results_mb", fileMB(filepath.Join(b.dataDir, "results.log")), "MB")
	m.set("store.journal_mb", fileMB(filepath.Join(b.dataDir, "journal.log")), "MB")
	dir := filepath.Join(b.root, "layers")
	if err := copyDir(b.dataDir, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	rs, err := serve.OpenResultStore(filepath.Join(dir, "results.log"), nil)
	if err != nil {
		return err
	}
	m.set("store.results_open_s", time.Since(t0).Seconds(), "s")
	rs.Close()
	t0 = time.Now()
	jl, err := serve.OpenJournal(filepath.Join(dir, "journal.log"), nil)
	if err != nil {
		return err
	}
	m.set("store.journal_open_s", time.Since(t0).Seconds(), "s")
	jl.Close()
	return nil
}

// fingerprintLayer times serve.Fingerprint on one formula.
func (b *bench) fingerprintLayer(id int, w *maxsat.WCNF) {
	b.tr.time("serve.fingerprint", id, func() { sinkFP += serve.Fingerprint(w) })
}

// solveLayers runs, on each formula, an uncertified maxsat.Solve with the
// algorithm auto picks, opt.Certify on its answer, and proof.CheckBytes on
// the certificate.
func (b *bench) solveLayers(m metrics, fs []*maxsat.WCNF) error {
	var calls, conflicts int64
	var certBytes, certs int
	for i, w := range fs {
		id := -1 - i
		var res maxsat.Result
		var err error
		b.tr.time("core.solve", id, func() { res, err = maxsat.Solve(w, maxsat.Options{}) })
		if err != nil {
			return fmt.Errorf("core.solve: %w", err)
		}
		calls += int64(res.SatCalls + res.UnsatCalls)
		conflicts += res.Conflicts
		ir := opt.Result{Cost: res.Cost, LowerBound: res.LowerBound, Model: res.Model}
		switch res.Status {
		case maxsat.Optimal:
			ir.Status = opt.StatusOptimal
		case maxsat.Unsatisfiable:
			ir.Status = opt.StatusUnsat
		default:
			return fmt.Errorf("core.solve: formula %d not solved", i)
		}
		var cert []byte
		b.tr.time("opt.certify", id, func() { cert, err = opt.Certify(b.ctx, w, ir, opt.Options{}) })
		if err != nil {
			return fmt.Errorf("opt.certify: %w", err)
		}
		b.tr.time("proof.check", id, func() { err = proof.CheckBytes(w, cert) })
		if err != nil {
			return fmt.Errorf("proof.check: %w", err)
		}
		certBytes += len(cert)
		certs++
	}
	n := float64(max(1, len(fs)))
	m.set("core.sat_calls", float64(calls)/n, "count/op")
	m.set("sat.conflicts", float64(conflicts)/n, "count/op")
	m.set("sat.conflicts_per_s", float64(conflicts)/max(1e-9, b.tr.totalS("core.solve")), "1/s")
	m.set("proof.cert_kb", float64(certBytes)/1e3/float64(max(1, certs)), "KB/op")
	return nil
}

// split separates a formula into the hard and soft clauses of one delta.
func split(w *maxsat.WCNF) (hards []maxsat.Clause, softs []cnf.WClause) {
	for _, c := range w.Clauses {
		if c.Weight == maxsat.HardWeight {
			hards = append(hards, c.Clause)
		} else {
			softs = append(softs, c)
		}
	}
	return hards, softs
}

// sessionProbe is the session path on one-shot inputs: each unweighted
// formula is pushed as the single delta of a fresh session on a probe server
// (no data directory) and solved; core.Inc replays the same delta.
func (b *bench) sessionProbe(m metrics, fs []*maxsat.WCNF) error {
	srv, err := maxsat.OpenServer(maxsat.ServerConfig{Workers: 1})
	if err != nil {
		return err
	}
	defer srv.Close()
	var solves, reused int
	for i, w := range fs {
		if w.Weighted() {
			continue
		}
		id := -1 - i
		hards, softs := split(w)
		sess, err := srv.OpenSession(b.ctx, nil, maxsat.Options{Algorithm: maxsat.AlgoMSU3})
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = sess.Push(maxsat.Delta{Hards: hards, Softs: softs})
		t1 := time.Now()
		var job *maxsat.Job
		if err == nil {
			job, err = sess.Solve(b.ctx)
		}
		t2 := time.Now()
		var res maxsat.Result
		if err == nil {
			res, err = job.Wait(b.ctx)
		}
		t3 := time.Now()
		sess.Close()
		if err != nil {
			return fmt.Errorf("session probe: %w", err)
		}
		b.tr.add("serve.session_push", id, t0, t1)
		b.tr.add("serve.session_submit", id, t1, t2)
		b.tr.add("serve.session_wait", id, t2, t3)
		solves++
		if res.Reused {
			reused++
		}
		inc := core.NewInc(opt.Options{}, nil)
		b.tr.time("core.inc_solve", id, func() {
			inc.Absorb(hards, softs)
			inc.SolveDelta(b.ctx, w, nil)
		})
		inc.Close()
	}
	m.set("serve.reused_ratio", ratio(int64(reused), int64(solves)), "ratio")
	return nil
}

// oneShotProbe is the one-shot request path on session inputs: each formula's
// text is parsed, submitted uncertified to a probe server and waited for.
func (b *bench) oneShotProbe(fs []formula) error {
	srv, err := maxsat.OpenServer(maxsat.ServerConfig{Workers: 1})
	if err != nil {
		return err
	}
	defer srv.Close()
	for i, f := range fs {
		id := -1 - i
		t0 := time.Now()
		w, err := maxsat.ParseWCNF(bytes.NewReader(f.text))
		t1 := time.Now()
		var job *maxsat.Job
		if err == nil {
			job, err = srv.Submit(w, maxsat.Options{Algorithm: maxsat.AlgoMSU3})
		}
		t2 := time.Now()
		if err == nil {
			_, err = job.Wait(b.ctx)
		}
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("one-shot probe: %w", err)
		}
		b.tr.add("cnf.parse", id, t0, t1)
		b.tr.add("serve.submit", id, t1, t2)
		b.tr.add("serve.wait", id, t2, t3)
	}
	return nil
}

func formulasOf(fs []formula) []*maxsat.WCNF {
	out := make([]*maxsat.WCNF, len(fs))
	for i, f := range fs {
		out[i] = f.w
	}
	return out
}

func (c *coldCert) layers(b *bench, m metrics) error {
	// One round's pool: every formula family once.
	round := formulasOf(c.tasks[:len(c.tasks)/c.rounds])
	for i, w := range round {
		b.fingerprintLayer(-1-i, w)
	}
	if err := b.solveLayers(m, round); err != nil {
		return err
	}
	return b.sessionProbe(m, round)
}

func (h *hotHits) layers(b *bench, m metrics) error {
	suite := formulasOf(h.suite)
	for i, w := range suite {
		b.fingerprintLayer(-1-i, w)
	}
	if err := b.solveLayers(m, suite); err != nil {
		return err
	}
	return b.sessionProbe(m, suite)
}

func (w *bmcWork) layers(b *bench, m metrics) error {
	// One session per configuration, replayed outside the server.
	var finals []formula
	var reused, solves int
	id := -1
	for _, s := range w.sessions[:len(w.sessions)/w.rounds] {
		mirror := s.base.Clone()
		inc := core.NewInc(opt.Options{}, s.base)
		for _, fr := range s.frames {
			for _, c := range fr.Hards {
				mirror.AddHard(c...)
			}
			mirror.AddSoft(1, fr.Prop)
			b.fingerprintLayer(id, mirror)
			d := frameDelta(fr)
			b.tr.time("core.inc_solve", id, func() {
				inc.Absorb(d.Hards, d.Softs)
				inc.SolveDelta(b.ctx, mirror, nil)
			})
			id--
		}
		inc.Close()
		f, err := newFormula(fmt.Sprintf("bmc-%d", len(finals)), mirror, -1)
		if err != nil {
			return err
		}
		finals = append(finals, f)
	}
	for _, r := range b.recs {
		if r.err == nil {
			solves++
			if r.res.Reused {
				reused++
			}
		}
	}
	m.set("serve.reused_ratio", ratio(int64(reused), int64(solves)), "ratio")
	if err := b.solveLayers(m, formulasOf(finals)); err != nil {
		return err
	}
	return b.oneShotProbe(finals)
}
