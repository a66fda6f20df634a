package torture

import (
	"fmt"

	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// This file is the snapshot category: the MVCC read path under churn.
// The snapshot cache makes pins O(1) by SHARING one snapshot across every
// reader at a version and advancing it copy-on-write on commit — the next
// version rebuilds the leaves the commit's delta touches and shares every
// other leaf with the one before — so the properties worth torturing are
// (a) a pinned snapshot is frozen forever: byte-identical at the end of
// the stream to the moment it was pinned, and to an oracle evaluation at
// that version, no matter how many commits advanced the cache underneath
// and how many of its leaves later versions still share; and (b)
// register/unregister/evict churn never lets a stale snapshot leak into a
// later pin.

// pinnedRecord freezes everything a pin promised: the shared snapshot
// itself plus a deep copy of what it contained (and what the oracle
// said) at pin time.
type pinnedRecord struct {
	name    string
	batch   int
	snap    *dyncq.QuerySnapshot
	version uint64
	rows    [][]dyncq.Value // deep copy at pin time
	oracle  [][]dyncq.Value // brute-force result at pin time
}

func deepCopyRows(rows [][]dyncq.Value) [][]dyncq.Value {
	out := make([][]dyncq.Value, len(rows))
	for i, r := range rows {
		out[i] = append([]dyncq.Value(nil), r...)
	}
	return out
}

func snapshotScenarios() []Scenario {
	return []Scenario{
		{
			Category: "snapshot", Name: "pinned-across-commits",
			Brief: "pinned snapshots stay byte-identical to pin-time state and oracle while the cache advances",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				// Capture on half the pool: the delta is emitted for the
				// hook and for the cache alike, and an uncaptured handle's
				// cache arms the emission on its own.
				for _, nq := range queryPool[:2] {
					if err := ws.CaptureDeltas(nq.name, func(dyncq.DeltaEvent) {}); err != nil {
						return err
					}
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 24, Updates: 1200, PDelete: 0.35, ZipfS: 1.2, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				rng := rngFor(seed, "snapshot-pins")
				var pinned []pinnedRecord
				const batchSize = 60
				for b := 0; b*batchSize < len(stream); b++ {
					lo, hi := b*batchSize, (b+1)*batchSize
					if hi > len(stream) {
						hi = len(stream)
					}
					if _, _, err := ws.Commit(stream[lo:hi]); err != nil {
						return fmt.Errorf("batch %d: %v", b, err)
					}
					o.apply(stream[lo:hi])
					for _, nq := range queryPool {
						h := ws.Handle(nq.name)
						s := h.Snapshot() // keeps every cache demanded → advancing
						if s.Version() != ws.Version() {
							return fmt.Errorf("batch %d: pin of %s at version %d, workspace at %d",
								b, nq.name, s.Version(), ws.Version())
						}
						if rng.Intn(4) == 0 {
							pinned = append(pinned, pinnedRecord{
								name: nq.name, batch: b, snap: s, version: s.Version(),
								rows:   deepCopyRows(s.Tuples()),
								oracle: deepCopyRows(eval.Evaluate(o.queries[nq.name], o.db).Tuples()),
							})
						}
					}
					if b%5 == 0 {
						if err := o.check(ws, fmt.Sprintf("batch %d", b)); err != nil {
							return err
						}
					}
				}
				// End of stream: every pinned snapshot must still read
				// exactly as it did at pin time, and match the oracle's
				// pin-time result as a set.
				for _, p := range pinned {
					if err := p.frozen(); err != nil {
						return err
					}
					if err := sameTupleSet(p.snap.Tuples(), p.oracle); err != nil {
						return fmt.Errorf("pin %s@batch%d vs oracle at pin time: %w", p.name, p.batch, err)
					}
				}
				// The pins above hit the advanced cache: re-pinning every
				// batch must have been served without re-materialising
				// each time.
				for _, nq := range queryPool {
					st := ws.Handle(nq.name).SnapshotCacheStats()
					if st.Patched+st.Rebuilt == 0 {
						return fmt.Errorf("%s: cache never advanced (%+v)", nq.name, st)
					}
				}
				return o.check(ws, "end of stream")
			},
		},
		{
			Category: "snapshot", Name: "cow-advance",
			Brief: "pins held across 200+ copy-on-write advances, evictions and a Load stay frozen while readers walk them; the current pin matches the oracle",
			Run:   cowAdvance,
		},
		{
			Category: "snapshot", Name: "register-churn",
			Brief: "unregister/re-register and eviction churn never serve a stale snapshot",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 20, Updates: 900, PDelete: 0.3, ZipfS: 1.1, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				rng := rngFor(seed, "snapshot-churn")
				// churn flips between two different queries under ONE
				// name; a stale cache would surface as the wrong result
				// set after a flip.
				churnTexts := []string{"Q(x) :- S(x), E(x,y)", "Q(y) :- T(y), E(x,y)"}
				churnOn := 0
				if _, err := ws.RegisterQuery("churn", mustParse(churnTexts[churnOn]), dyncq.Options{}); err != nil {
					return err
				}
				o.register("churn", mustParse(churnTexts[churnOn]))
				var held []*dyncq.QuerySnapshot // old-generation pins kept across flips
				const batchSize = 45
				for b := 0; b*batchSize < len(stream); b++ {
					lo, hi := b*batchSize, (b+1)*batchSize
					if hi > len(stream) {
						hi = len(stream)
					}
					if _, _, err := ws.Commit(stream[lo:hi]); err != nil {
						return fmt.Errorf("batch %d: %v", b, err)
					}
					o.apply(stream[lo:hi])
					h := ws.Handle("churn")
					s := h.Snapshot()
					want := eval.Evaluate(o.queries["churn"], o.db)
					if err := sameTupleSet(s.Tuples(), want.Tuples()); err != nil {
						return fmt.Errorf("batch %d (generation %d): churn snapshot: %w", b, churnOn, err)
					}
					switch rng.Intn(3) {
					case 0: // flip the registration under the same name
						held = append(held, s)
						wantOld := deepCopyRows(s.Tuples())
						if !ws.Unregister("churn") {
							return fmt.Errorf("batch %d: unregister failed", b)
						}
						o.unregister("churn")
						churnOn = 1 - churnOn
						if _, err := ws.RegisterQuery("churn", mustParse(churnTexts[churnOn]), dyncq.Options{}); err != nil {
							return fmt.Errorf("batch %d: re-register: %v", b, err)
						}
						o.register("churn", mustParse(churnTexts[churnOn]))
						// The fresh handle pins the NEW query's result…
						h2 := ws.Handle("churn")
						want2 := eval.Evaluate(o.queries["churn"], o.db)
						if err := sameTupleSet(h2.Snapshot().Tuples(), want2.Tuples()); err != nil {
							return fmt.Errorf("batch %d: re-registered churn: %w", b, err)
						}
						// …while the pre-flip pin still reads its frozen rows.
						now := s.Tuples()
						for i := range now {
							if !equalTuple(now[i], wantOld[i]) {
								return fmt.Errorf("batch %d: pre-flip pin mutated at row %d", b, i)
							}
						}
					case 1: // evict: the next pin re-materialises correctly
						h.EvictSnapshot()
						if err := sameTupleSet(h.Snapshot().Tuples(), want.Tuples()); err != nil {
							return fmt.Errorf("batch %d: post-evict pin: %w", b, err)
						}
					}
					if b%6 == 0 {
						if err := o.check(ws, fmt.Sprintf("batch %d", b)); err != nil {
							return err
						}
					}
				}
				if len(held) == 0 {
					return fmt.Errorf("churn never flipped (harness rng broken?)")
				}
				return o.check(ws, "end of stream")
			},
		},
	}
}

// cowAdvance is snapshot/cow-advance. The pool queries — core and ivm —
// are pinned at random versions while 200 and more commits, random
// evictions and one mid-stream Load go by, over a domain wide enough that
// results spread over several leaves. Every pin is deep-copied the moment
// it is taken and handed to reader goroutines that keep re-walking the
// pins they hold while the commits behind them rebuild some of the very
// leaves' neighbours and share the rest: a patch that wrote into a shared
// leaf would show as a changed row here and as a data race under -race.
// At the end every held pin must equal its copy row for row, and every
// query's current pin the oracle.
func cowAdvance(seed int64) error {
	ws, o, err := buildWorkspace(0)
	if err != nil {
		return err
	}
	handles := ws.Handles()
	for _, h := range handles {
		h.Snapshot() // cached from the empty version on: the first leaves are cut by a patch, not by a pin
	}
	// A first bulk commit puts several hundred rows, half a dozen leaves,
	// into the widest result (src, one row per distinct x of E); the stream
	// then churns them a dozen updates at a time.
	const domain = 700
	rng := rngFor(seed, "snapshot-cow")
	edgeHeavy := func(edges, unary int) *dyndb.Database {
		db := dyndb.New()
		insert := func(rel string, arity int) {
			t := make([]dyncq.Value, arity)
			for i := range t {
				t[i] = dyncq.Value(1 + rng.Intn(domain))
			}
			if _, err := db.Insert(rel, t...); err != nil {
				panic(err) // the arities are fixed right here
			}
		}
		for i := 0; i < edges; i++ {
			insert("E", 2)
		}
		for i := 0; i < unary; i++ {
			insert("S", 1)
			insert("T", 1)
		}
		return db
	}
	bulk := edgeHeavy(1000, 150).Updates()
	if _, _, err := ws.Commit(bulk); err != nil {
		return err
	}
	o.apply(bulk)

	const readers = 2
	pins := make(chan pinnedRecord)
	verdicts := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			var held []pinnedRecord
			var verdict error
			walk := func(some []pinnedRecord) {
				for _, p := range some {
					if err := p.frozen(); err != nil && verdict == nil {
						verdict = err
					}
				}
			}
			for p := range pins {
				held = append(held, p)
				walk(held[max(0, len(held)-4):]) // the freshest few: their leaves are the ones being shared right now
			}
			walk(held)
			verdicts <- verdict
		}()
	}
	finish := func(err error) error {
		close(pins)
		for r := 0; r < readers; r++ {
			if verdict := <-verdicts; err == nil {
				err = verdict
			}
		}
		return err
	}

	cfg := workload.TortureConfig{Seed: seed, Domain: domain, Updates: 2600, PDelete: 0.45}
	stream := cfg.Stream(tortureSchema)
	const batchSize = 12
	batches := (len(stream) + batchSize - 1) / batchSize
	if batches < 200 {
		return finish(fmt.Errorf("stream of %d updates makes %d commits, want at least 200", len(stream), batches))
	}
	widest := 0 // most rows a pin held: the scenario must not stay inside a leaf or two
	for b := 0; b < batches; b++ {
		chunk := stream[b*batchSize : min((b+1)*batchSize, len(stream))]
		where := fmt.Sprintf("batch %d", b)
		if b == batches/2 {
			db := edgeHeavy(800, 100)
			if err := ws.Load(db); err != nil {
				return finish(fmt.Errorf("%s: load: %v", where, err))
			}
			o.load(db)
			// The stream was generated against an empty store: beside
			// these contents some of its commands are no-ops, which is fine.
		}
		if _, _, err := ws.Commit(chunk); err != nil {
			return finish(fmt.Errorf("%s: %v", where, err))
		}
		o.apply(chunk)
		for _, h := range handles {
			switch rng.Intn(6) {
			case 0: // evict: the next pin materialises, later commits patch that
				h.EvictSnapshot()
			case 1, 2: // pin and hand to a reader
				s := h.Snapshot()
				if s.Version() != ws.Version() {
					return finish(fmt.Errorf("%s: pin of %s at version %d, workspace at %d", where, h.Name(), s.Version(), ws.Version()))
				}
				rows := deepCopyRows(s.Tuples())
				for i := 1; i < len(rows); i++ {
					if !lessTuple(rows[i-1], rows[i]) {
						return finish(fmt.Errorf("%s: pin of %s (%s) is not in lexicographic order at row %d: %v then %v",
							where, h.Name(), h.Strategy(), i, rows[i-1], rows[i]))
					}
				}
				widest = max(widest, len(rows))
				pins <- pinnedRecord{name: h.Name(), batch: b, snap: s, version: s.Version(), rows: rows}
			default: // pin only: keeps the cache demanded, so the commits keep advancing it
				h.Snapshot()
			}
		}
		if b%40 == 0 {
			if err := o.check(ws, where); err != nil {
				return finish(err)
			}
		}
	}
	if err := finish(nil); err != nil {
		return err
	}
	if widest < 400 {
		return fmt.Errorf("the widest pinned result held %d rows, want four hundred and more: too few leaves to share", widest)
	}
	for _, h := range handles {
		want := eval.Evaluate(o.queries[h.Name()], o.db).Tuples() // sorted, as a snapshot is
		if err := sameTupleList(h.Snapshot().Tuples(), want); err != nil {
			return fmt.Errorf("end of stream: current pin of %s (%s): %w", h.Name(), h.Strategy(), err)
		}
		if st := h.SnapshotCacheStats(); st.Patched+st.Rebuilt == 0 {
			return fmt.Errorf("%s: cache never advanced (%+v)", h.Name(), st)
		}
	}
	return o.check(ws, "end of stream")
}

// frozen reports whether the pinned snapshot still reads exactly as it
// did when it was pinned.
func (p pinnedRecord) frozen() error {
	if p.snap.Version() != p.version {
		return fmt.Errorf("pin %s@batch%d: version mutated %d -> %d", p.name, p.batch, p.version, p.snap.Version())
	}
	if p.snap.Len() != len(p.rows) {
		return fmt.Errorf("pin %s@batch%d: length mutated %d -> %d", p.name, p.batch, len(p.rows), p.snap.Len())
	}
	i := 0
	var err error
	p.snap.Enumerate(func(t []dyncq.Value) bool {
		if !equalTuple(t, p.rows[i]) {
			err = fmt.Errorf("pin %s@batch%d: row %d mutated %v -> %v", p.name, p.batch, i, p.rows[i], t)
		}
		i++
		return err == nil
	})
	return err
}
