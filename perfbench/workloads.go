package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro"
	"repro/internal/cnf"
	"repro/internal/gen"
)

// Work per episode. Every episode of a workload does the same fixed amount
// of work; a run holds about -seconds/episodeSeconds episodes, so that on
// the reference machine (2 vCPU) the timed segments of cold-cert and
// hot-hits add up to about -seconds. bmc-session's add up to about a third
// of it: closed sessions stay reachable after their server closes
// (README.md), so its memory grows with every episode. Fixed work keeps
// every per-operation figure, and the size of the durable state that
// ready_s and disk_mb measure, independent of how fast the program is.
const (
	coldEpisodeSeconds = 6.0 // one pass over the 101-formula pool
	hotEpisodeSeconds  = 7.6 // hotEpisodeRounds rounds of draws
	bmcEpisodeSeconds  = 2.7 // bmcEpisodeRounds rounds of sessions, ~0.9 s
	coldEpisodeRounds  = 1
	hotEpisodeRounds   = 9
	hotRestarts        = 3 // a restart re-proves the suite's certificates in about a second
	bmcEpisodeRounds   = 2
	hotRoundDraws      = 200 // draws per round before per-formula rounding
	hotZipf            = 1.0 // popularity exponent
	hotBand            = 7   // formulas per popularity band (see plan)
	bmcTagBits         = 12  // tag units per session base
)

func rounds(cfg config, perEpisode int) int {
	if cfg.rounds > 0 {
		return cfg.rounds
	}
	return perEpisode
}

// formula is one generated input: the benchmark's own copy (all checks use
// it) and the WCNF text a client would send.
type formula struct {
	name  string
	w     *maxsat.WCNF
	text  []byte
	known maxsat.Weight // generator-stated optimum, -1 if unknown
}

func newFormula(name string, w *maxsat.WCNF, known maxsat.Weight) (formula, error) {
	var buf bytes.Buffer
	if err := maxsat.WriteWCNF(&buf, w); err != nil {
		return formula{}, fmt.Errorf("serialising %s: %w", name, err)
	}
	return formula{name: name, w: w, text: buf.Bytes(), known: known}, nil
}

// smallest keeps the k instances with the fewest clauses (tests).
func smallest(pool []gen.Instance, k int) []gen.Instance {
	pool = slices.Clone(pool)
	slices.SortStableFunc(pool, func(a, b gen.Instance) int { return len(a.W.Clauses) - len(b.W.Clauses) })
	return pool[:min(k, len(pool))]
}

// ---- cold-cert: every request is a formula the server has never seen ----

type coldCert struct {
	episode, rounds int
	tasks           []formula
}

func newColdCert(cfg config, episode int) workload {
	return &coldCert{episode: episode, rounds: rounds(cfg, coldEpisodeRounds)}
}

// coldPool is the 101-formula pool of one round.
func coldPool(seed int64) []gen.Instance {
	pool := gen.Suite(seed)
	pool = append(pool, gen.DebugSuite(seed)...)
	return append(pool, gen.WeightedSuite(seed)...)
}

func (c *coldCert) setup(b *bench) error {
	for r := 0; r < c.rounds; r++ {
		// Every pass draws the pool at generator seed 1 whatever the run
		// seed: under the default algorithm the weighted random formulas
		// are heavy-tailed in their generator seed (README.md), so
		// seed-drawn pools would make runs incomparable. The run seed sets
		// the order. Every formula is tagged with a hard unit clause on
		// fresh variable NumVars+t, t the pass's number in the run: the
		// optimum is unchanged, and no formula repeats within a run.
		pool := coldPool(1)
		if b.cfg.small {
			pool = smallest(pool, 4)
		}
		t := c.episode*c.rounds + r
		for _, i := range b.rng.Perm(len(pool)) {
			in := pool[i]
			w := in.W.Clone()
			w.AddHard(maxsat.PosLit(maxsat.Var(w.NumVars + t)))
			f, err := newFormula(fmt.Sprintf("%s/t%d", in.Name, t), w, in.KnownCost)
			if err != nil {
				return err
			}
			c.tasks = append(c.tasks, f)
		}
	}
	return b.open()
}

func (c *coldCert) units() int { return len(c.tasks) }
func (c *coldCert) ops() int   { return len(c.tasks) }

func (c *coldCert) run(b *bench, u int) {
	b.oneShot(u, c.tasks[u].text, maxsat.Options{Certify: true})
}

func (c *coldCert) check(b *bench, u int, fail func(int, error)) {
	r := b.recs[u].res
	if r.Cached {
		fail(u, errors.New("answered from the cache"))
		return
	}
	if err := checkCertified(c.tasks[u].w, r, c.tasks[u].known); err != nil {
		fail(u, fmt.Errorf("%s: %w", c.tasks[u].name, err))
	}
}

func (c *coldCert) checkSetup(*bench) error { return nil }
func (c *coldCert) setupStored() int64      { return 0 }

// ---- hot-hits: repeated requests for answers proven in set-up ----

type hotHits struct {
	rounds int
	suite  []formula
	proven []maxsat.Result // set-up answers, one per suite formula
	draws  []int           // suite index of each timed operation
}

func newHotHits(cfg config, _ int) workload { return &hotHits{rounds: rounds(cfg, hotEpisodeRounds)} }

func (h *hotHits) setup(b *bench) error {
	// The Table 1 suite at generator seed 1; the run seed sets popularity
	// and order (see plan).
	pool := gen.Suite(1)
	if b.cfg.small {
		pool = smallest(pool, 6)
	}
	for _, in := range pool {
		f, err := newFormula(in.Name, in.W, in.KnownCost)
		if err != nil {
			return err
		}
		h.suite = append(h.suite, f)
	}
	if err := b.open(); err != nil {
		return err
	}
	// Fill the cache: solve and certify every formula once.
	h.proven = make([]maxsat.Result, len(h.suite))
	errs := make([]error, len(h.suite))
	closedLoop(b.cfg.clients, len(h.suite), func(i int) {
		w, err := maxsat.ParseWCNF(bytes.NewReader(h.suite[i].text))
		if err != nil {
			errs[i] = err
			return
		}
		job, err := b.srv.Submit(w, maxsat.Options{Certify: true})
		if err != nil {
			errs[i] = err
			return
		}
		ctx, cancel := context.WithTimeout(b.ctx, opTimeout)
		defer cancel()
		h.proven[i], errs[i] = job.Wait(ctx)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	h.plan(b.rng)
	return nil
}

// plan lays out the draws. Popularity is Zipf over ranks, so a few formulas
// draw most requests, and every formula is drawn at least once per round.
// Ranks go to formulas in order of hitWork, smallest first, in bands of
// hotBand; the seed shuffles the formulas within each band, afresh every
// round. A hit's cost grows with hitWork, so banding keeps each seed's mix
// of cheap and dear hits alike, and the per-round minimum keeps the largest
// certificates in every round.
func (h *hotHits) plan(rng *rand.Rand) {
	n := len(h.suite)
	byWork := make([]int, n)
	for i := range byWork {
		byWork[i] = i
	}
	slices.SortStableFunc(byWork, func(a, b int) int { return h.hitWork(a) - h.hitWork(b) })
	var norm float64
	for r := 0; r < n; r++ {
		norm += math.Pow(float64(r+1), -hotZipf)
	}
	counts := make([]int, n)
	for r := range counts {
		counts[r] = max(1, int(math.Round(hotRoundDraws*math.Pow(float64(r+1), -hotZipf)/norm)))
	}
	for round := 0; round < h.rounds; round++ {
		holder := slices.Clone(byWork)
		for lo := 0; lo < n; lo += hotBand {
			band := holder[lo:min(n, lo+hotBand)]
			rng.Shuffle(len(band), func(i, j int) { band[i], band[j] = band[j], band[i] })
		}
		start := len(h.draws)
		for r, c := range counts {
			for k := 0; k < c; k++ {
				h.draws = append(h.draws, holder[r])
			}
		}
		mine := h.draws[start:]
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
	}
}

// hitWork estimates the work of one hit on formula i: the request text is
// parsed and fingerprinted, and the certificate re-checked. A certificate
// byte costs about twenty times a text byte (measured on gen.Suite(1)).
func (h *hotHits) hitWork(i int) int {
	return len(h.suite[i].text) + 20*len(h.proven[i].Certificate)
}

func (h *hotHits) units() int { return len(h.draws) }
func (h *hotHits) ops() int   { return len(h.draws) }

func (h *hotHits) run(b *bench, u int) {
	b.oneShot(u, h.suite[h.draws[u]].text, maxsat.Options{Certify: true})
}

func (h *hotHits) check(b *bench, u int, fail func(int, error)) {
	i := h.draws[u]
	r, want := b.recs[u].res, h.proven[i]
	var err error
	switch {
	case !r.Cached:
		err = errors.New("not answered from the cache")
	case r.Status != want.Status || r.Cost != want.Cost:
		err = fmt.Errorf("answer %v/%d, set-up proved %v/%d", r.Status, r.Cost, want.Status, want.Cost)
	case !bytes.Equal(r.Certificate, want.Certificate):
		// A different certificate is acceptable only if it checks.
		if cerr := maxsat.CheckCertificate(h.suite[i].w, r.Certificate); cerr != nil {
			err = fmt.Errorf("certificate rejected: %w", cerr)
		}
	}
	if err == nil && r.Status == maxsat.Optimal {
		err = checkModel(h.suite[i].w, r)
	}
	if err != nil {
		fail(u, fmt.Errorf("%s: %w", h.suite[i].name, err))
	}
}

func (h *hotHits) checkSetup(*bench) error {
	var errs []error
	for i, f := range h.suite {
		if h.proven[i].Cached {
			errs = append(errs, fmt.Errorf("%s: set-up answer came from the cache", f.name))
		}
		if err := checkCertified(f.w, h.proven[i], f.known); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", f.name, err))
		}
	}
	return errors.Join(errs...)
}

func (h *hotHits) setupStored() int64 { return int64(len(h.suite)) }

// ---- bmc-session: incremental BMC unrollings, one frame per delta ----

// bmcConfigs are the session shapes of one round: family, width and depth.
// The BMC generators have no randomness; the seed decides the session order
// and the tag that keeps every session's formulas distinct.
var bmcConfigs = []struct {
	counter bool
	n, k    int
}{
	{true, 3, 40}, {true, 4, 40}, {true, 5, 40}, {true, 6, 40}, {true, 7, 40}, {true, 8, 40},
	{false, 4, 40}, {false, 6, 40}, {false, 8, 40}, {false, 10, 40}, {false, 12, 40},
	{false, 16, 40}, {false, 20, 40}, {false, 24, 40}, {false, 28, 40}, {false, 32, 40},
}

type bmcSession struct {
	counter bool
	n       int
	frames  []gen.BMCFrame // shared by the sessions of one configuration
	base    *maxsat.WCNF   // the session's tag
	off     int            // index of its first operation
}

type bmcWork struct {
	episode, rounds int
	mask            int // xor-ed into every session's tag
	sessions        []bmcSession
	nops            int
}

func newBMC(cfg config, episode int) workload {
	return &bmcWork{
		episode: episode,
		rounds:  rounds(cfg, bmcEpisodeRounds),
		mask:    rand.New(rand.NewSource(cfg.seed)).Intn(1 << bmcTagBits),
	}
}

func (w *bmcWork) setup(b *bench) error {
	configs := bmcConfigs
	if b.cfg.small {
		configs = configs[:2]
	}
	frames := make([][]gen.BMCFrame, len(configs))
	for i, c := range configs {
		k := c.k
		if b.cfg.small {
			k = 6
		}
		if c.counter {
			frames[i] = gen.BMCCounterFrames(c.n, k)
		} else {
			frames[i] = gen.BMCShiftFrames(c.n, k)
		}
	}
	for r := 0; r < w.rounds; r++ {
		for _, i := range b.rng.Perm(len(configs)) {
			fr := frames[i]
			// Tag: the session's number s in the run (xor a seeded mask)
			// spelled in unit clauses over bmcTagBits variables past the
			// deepest frame.
			s := w.episode*w.rounds*len(configs) + len(w.sessions)
			if s >= 1<<bmcTagBits {
				return fmt.Errorf("more than %d sessions", 1<<bmcTagBits)
			}
			base := maxsat.NewWCNF(0)
			for bit := 0; bit < bmcTagBits; bit++ {
				v := maxsat.Var(fr[len(fr)-1].Vars + bit)
				base.AddHard(maxsat.NewLit(v, (s^w.mask)>>bit&1 == 1))
			}
			w.sessions = append(w.sessions, bmcSession{
				counter: configs[i].counter, n: configs[i].n, frames: fr, base: base, off: w.nops,
			})
			w.nops += len(fr)
		}
	}
	return b.open()
}

func (w *bmcWork) units() int { return len(w.sessions) }
func (w *bmcWork) ops() int   { return w.nops }

// frameDelta is frame fr as one session delta: its hard clauses plus the
// unit soft clause asserting the property.
func frameDelta(fr gen.BMCFrame) maxsat.Delta {
	return maxsat.Delta{Hards: fr.Hards, Softs: []cnf.WClause{{Clause: maxsat.Clause{fr.Prop}, Weight: 1}}}
}

func (w *bmcWork) run(b *bench, u int) {
	s := &w.sessions[u]
	sess, err := b.srv.OpenSession(b.ctx, s.base, maxsat.Options{Algorithm: maxsat.AlgoMSU3})
	if err != nil {
		for k := range s.frames {
			b.recs[s.off+k].err = fmt.Errorf("opening session: %w", err)
		}
		return
	}
	defer sess.Close()
	for k, fr := range s.frames {
		op := s.off + k
		t0 := time.Now()
		var t1, t2 time.Time
		err := sess.Push(frameDelta(fr))
		if b.tr != nil {
			t1 = time.Now()
		}
		var job *maxsat.Job
		if err == nil {
			job, err = sess.Solve(b.ctx)
		}
		if b.tr != nil {
			t2 = time.Now()
		}
		var res maxsat.Result
		if err == nil {
			ctx, cancel := context.WithTimeout(b.ctx, opTimeout)
			res, err = job.Wait(ctx)
			cancel()
		}
		t3 := time.Now()
		b.recs[op] = opRec{lat: t3.Sub(t0), res: res, err: err}
		if b.tr != nil {
			id := b.opBase + op
			b.tr.add("op", id, t0, t3)
			b.tr.add("serve.session_push", id, t0, t1)
			b.tr.add("serve.session_submit", id, t1, t2)
			b.tr.add("serve.session_wait", id, t2, t3)
		}
		if err != nil {
			// Later frames would solve a different formula than planned.
			for j := k + 1; j < len(s.frames); j++ {
				b.recs[s.off+j].err = fmt.Errorf("session broken at frame %d: %w", k, err)
			}
			return
		}
	}
}

// check replays the session on the benchmark's own mirror of the
// accumulated formula and checks each answer against the optimum the BMC
// construction implies.
func (w *bmcWork) check(b *bench, u int, fail func(int, error)) {
	s := &w.sessions[u]
	mirror := s.base.Clone()
	for k, fr := range s.frames {
		for _, c := range fr.Hards {
			mirror.AddHard(c...)
		}
		mirror.AddSoft(1, fr.Prop)
		op := s.off + k
		if b.recs[op].err != nil {
			continue
		}
		r := b.recs[op].res
		want := bmcOptimum(s.counter, s.n, k+1)
		var err error
		switch {
		case r.Cached:
			err = errors.New("answered from the cache")
		case r.Cost != want:
			err = fmt.Errorf("cost %d, the construction implies %d", r.Cost, want)
		default:
			err = checkModel(mirror, r)
		}
		if err != nil {
			fail(op, fmt.Errorf("session %d frame %d: %w", u, k+1, err))
		}
	}
}

func (w *bmcWork) checkSetup(*bench) error { return nil }
func (w *bmcWork) setupStored() int64      { return 0 }
