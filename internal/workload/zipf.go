package workload

import (
	"fmt"
	"math/rand"

	"dyncq/internal/dyndb"
)

// This file adds the adversarial, production-shaped generators behind
// the torture harness (internal/torture): Zipf-skewed update streams —
// real traffic
// concentrates on hot keys, which is exactly the access shape the
// free-access-patterns line (Kara, Nikolic, Olteanu, Zhang) motivates —
// and register/unregister churn plans for query-lifecycle stress. Every
// generator is a pure function of its configuration, so any failure
// replays bit-identically from the recorded seed.

// TortureConfig is the seed-driven stream-generator configuration of the
// torture harness. The zero value is not
// useful; call Normalize (idempotent) to clamp arbitrary field values —
// including adversarial ones from the fuzzer — into the generator's
// valid ranges. A normalized config fully determines its stream: same
// config, same bytes.
type TortureConfig struct {
	// Seed drives every random choice of the generator.
	Seed int64
	// Domain is the value universe: constants are drawn from 1..Domain.
	Domain int
	// Updates is the requested stream length. The generator may fall
	// short when the domain saturates (every possible tuple is present
	// and deletions are rare) — it never spins forever to force length.
	Updates int
	// PDelete in [0,1] is the fraction of deletions attempted. Deletions
	// always target a currently-present tuple, so the stream is
	// well-formed: no no-op deletes, no duplicate inserts.
	PDelete float64
	// ZipfS > 1 skews value draws by a Zipf distribution with exponent
	// ZipfS (hot values drawn vastly more often); <= 1 means uniform.
	ZipfS float64
	// ZipfV >= 1 is the Zipf v parameter (flattens the head as it grows).
	ZipfV float64
}

// Normalize clamps every field into the generator's valid range and
// returns the result. It is how arbitrary inputs (the fuzzer's, a
// CLI user's) become a runnable configuration: Domain and Updates are
// forced positive and capped, PDelete clamped into [0,1], ZipfV raised
// to 1 whenever a Zipf skew is requested. Normalizing twice is a no-op.
func (c TortureConfig) Normalize() TortureConfig {
	if c.Domain < 1 {
		c.Domain = 1
	}
	if c.Domain > 1<<20 {
		c.Domain = 1 << 20
	}
	if c.Updates < 0 {
		c.Updates = 0
	}
	if c.Updates > 1<<22 {
		c.Updates = 1 << 22
	}
	if c.PDelete < 0 || c.PDelete != c.PDelete { // NaN guards included
		c.PDelete = 0
	}
	if c.PDelete > 1 {
		c.PDelete = 1
	}
	if c.ZipfS != c.ZipfS || c.ZipfS <= 1 {
		c.ZipfS = 0 // uniform
	}
	if c.ZipfS > 16 {
		c.ZipfS = 16
	}
	if c.ZipfV != c.ZipfV || c.ZipfV < 1 {
		c.ZipfV = 1
	}
	if c.ZipfV > 1<<20 {
		c.ZipfV = 1 << 20
	}
	return c
}

// draw builds the value sampler of a normalized config: Zipf-skewed when
// ZipfS > 1, uniform otherwise. Zipf ranks map onto 1..Domain, so rank 0
// (the hottest) is value 1.
func (c TortureConfig) draw(rng *rand.Rand) func() dyndb.Value {
	if c.ZipfS > 1 {
		z := rand.NewZipf(rng, c.ZipfS, c.ZipfV, uint64(c.Domain-1))
		return func() dyndb.Value { return dyndb.Value(1 + z.Uint64()) }
	}
	return func() dyndb.Value { return dyndb.Value(1 + rng.Intn(c.Domain)) }
}

// Stream generates a well-formed update stream against the schema: every
// deletion targets a tuple present at that point of the stream, inserts
// never duplicate a present tuple, and all arities match the schema. The
// stream is a pure function of (config, schema). When the domain
// saturates (fresh tuples become hard to draw) the generator forces
// deletions — adversarial insert/delete flapping on hot tuples — instead
// of spinning; only a schema with no present tuple left to delete ends
// the stream early.
func (c TortureConfig) Stream(schema map[string]int) []dyndb.Update {
	c = c.Normalize()
	if len(schema) == 0 || c.Updates == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(c.Seed))
	value := c.draw(rng)
	rels := sortedRelations(schema)

	present := make(map[string][][]Value, len(schema))
	index := make(map[string]map[string]int, len(schema))
	for r := range schema {
		index[r] = map[string]int{}
	}
	key := func(t []Value) string { return fmt.Sprint(t) }
	out := make([]dyndb.Update, 0, c.Updates)
	// Misses counts consecutive failed insert attempts (duplicates of
	// present tuples); past the cap the domain is treated as saturated
	// for this round and a deletion is forced if one is possible.
	const missCap = 64
	misses := 0
	for len(out) < c.Updates {
		rel := rels[rng.Intn(len(rels))]
		ar := schema[rel]
		wantDelete := rng.Float64() < c.PDelete || misses >= missCap
		if wantDelete && len(present[rel]) > 0 {
			i := rng.Intn(len(present[rel]))
			t := present[rel][i]
			last := len(present[rel]) - 1
			present[rel][i] = present[rel][last]
			index[rel][key(present[rel][i])] = i
			present[rel] = present[rel][:last]
			delete(index[rel], key(t))
			out = append(out, dyndb.Delete(rel, t...))
			misses = 0
			continue
		}
		t := make([]Value, ar)
		for j := range t {
			t[j] = value()
		}
		if _, dup := index[rel][key(t)]; dup {
			misses++
			if misses >= 2*missCap {
				// Saturated and nothing deletable was picked for this
				// relation: give up instead of spinning.
				if !anyPresent(present) {
					break
				}
				misses = missCap // keep forcing deletions
			}
			continue
		}
		index[rel][key(t)] = len(present[rel])
		present[rel] = append(present[rel], t)
		out = append(out, dyndb.Insert(rel, t...))
		misses = 0
	}
	return out
}

// Database builds an initial database of roughly tuples random tuples
// drawn with the config's value distribution, spread across the schema's
// relations. Like Stream it is a pure function of its inputs and gives
// up on saturated relations instead of spinning.
func (c TortureConfig) Database(schema map[string]int, tuples int) *dyndb.Database {
	c = c.Normalize()
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed1a96))
	value := c.draw(rng)
	rels := sortedRelations(schema)
	db := dyndb.New()
	for rel, ar := range schema {
		if err := db.EnsureRelation(rel, ar); err != nil {
			panic(err)
		}
	}
	misses := 0
	for db.Cardinality() < tuples && misses < 1024 {
		rel := rels[rng.Intn(len(rels))]
		t := make([]Value, schema[rel])
		for j := range t {
			t[j] = value()
		}
		changed, err := db.Insert(rel, t...)
		if err != nil {
			panic(err)
		}
		if changed {
			misses = 0
		} else {
			misses++
		}
	}
	return db
}

func sortedRelations(schema map[string]int) []string {
	rels := make([]string, 0, len(schema))
	for r := range schema {
		rels = append(rels, r)
	}
	for i := 1; i < len(rels); i++ {
		for j := i; j > 0 && rels[j] < rels[j-1]; j-- {
			rels[j], rels[j-1] = rels[j-1], rels[j]
		}
	}
	return rels
}

func anyPresent(present map[string][][]Value) bool {
	for _, ts := range present {
		if len(ts) > 0 {
			return true
		}
	}
	return false
}

// ChurnEvent is one step of a query-lifecycle churn plan: register the
// named query (drawn from the plan's pool) or unregister it again.
type ChurnEvent struct {
	Unregister bool
	// Name is the registration name, "q<i>" for pool index i.
	Name string
	// Pool is the pool index of the query this event concerns.
	Pool int
}

// ChurnPlan generates a deterministic register/unregister schedule over
// a pool of poolSize queries: each event registers a random unregistered
// pool entry or unregisters a random live one (pRegister biases the
// choice; a plan never unregisters below one live query, so the
// workspace always serves traffic). The plan starts by registering pool
// entry 0.
func ChurnPlan(rng *rand.Rand, poolSize, events int, pRegister float64) []ChurnEvent {
	if poolSize < 1 || events < 1 {
		return nil
	}
	live := []int{0}
	idle := make([]int, 0, poolSize)
	for i := 1; i < poolSize; i++ {
		idle = append(idle, i)
	}
	plan := []ChurnEvent{{Name: "q0", Pool: 0}}
	for len(plan) < events {
		register := len(live) <= 1 || (len(idle) > 0 && rng.Float64() < pRegister)
		if register && len(idle) > 0 {
			i := rng.Intn(len(idle))
			p := idle[i]
			idle[i] = idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			live = append(live, p)
			plan = append(plan, ChurnEvent{Name: fmt.Sprintf("q%d", p), Pool: p})
			continue
		}
		if len(live) <= 1 {
			break // pool of one: nothing left to churn
		}
		i := rng.Intn(len(live))
		p := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		idle = append(idle, p)
		plan = append(plan, ChurnEvent{Unregister: true, Name: fmt.Sprintf("q%d", p), Pool: p})
	}
	return plan
}
