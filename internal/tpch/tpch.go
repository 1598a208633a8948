// Package tpch is a deterministic, dbgen-style generator for the subset of
// the TPC-H schema exercised by the paper's experiments (Section 6 and
// Appendix B.1): REGION, NATION, SUPPLIER, CUSTOMER, PART, PARTSUPP, ORDERS
// and LINEITEM. It reproduces the structural properties the enumeration
// algorithms interact with — key spaces, join fan-outs (exactly four
// suppliers per part, 1–7 lineitems per order, 25 nations over 5 regions,
// one third of customers without orders) — at a configurable scale factor,
// substituting for the original C dbgen tool (the README's "Layout" section
// lists the rest of the experimental workload).
//
// Nation and region keys follow the official TPC-H mapping, so the paper's
// selection constants carry over: nationkey 24 = UNITED STATES and
// nationkey 23 = UNITED KINGDOM (queries QA and QE).
package tpch

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// Cardinality bases at scale factor 1 (dbgen's numbers).
const (
	BaseSuppliers = 10_000
	BaseCustomers = 150_000
	BaseParts     = 200_000
	BaseOrders    = 1_500_000
	// PARTSUPP is 4 rows per part; LINEITEM averages 4 rows per order.
)

// regions is the official TPC-H region table (key = slice index).
var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nations is the official TPC-H nation table: name and region key, with the
// nation key equal to the slice index.
var nations = []struct {
	Name      string
	RegionKey int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"RUSSIA", 3}, {"SAUDI ARABIA", 4}, {"VIETNAM", 2},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

// NationKeyUS and NationKeyUK are the selection constants used by the
// paper's QA/QE and QS7/QC7 queries.
const (
	NationKeyUS = 24
	NationKeyUK = 23
)

// Config controls generation.
type Config struct {
	// ScaleFactor scales all table cardinalities (dbgen's -s). The paper
	// uses 5; the test/bench default here is far smaller.
	ScaleFactor float64
	// Seed makes generation deterministic.
	Seed int64
}

// Generate builds the database. Relation schemas (column order matters for
// the query definitions in internal/tpchq):
//
//	region  (r_regionkey, r_name)
//	nation  (n_nationkey, n_name, n_regionkey)
//	supplier(s_suppkey, s_name, s_nationkey)
//	customer(c_custkey, c_name, c_nationkey)
//	part    (p_partkey, p_name)
//	partsupp(ps_partkey, ps_suppkey)
//	orders  (o_orderkey, o_custkey)
//	lineitem(l_orderkey, l_partkey, l_suppkey, l_linenumber)
func Generate(cfg Config) (*relation.Database, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive, got %v", cfg.ScaleFactor)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relation.NewDatabase()

	nSupp := scaled(BaseSuppliers, cfg.ScaleFactor)
	nCust := scaled(BaseCustomers, cfg.ScaleFactor)
	nPart := scaled(BaseParts, cfg.ScaleFactor)
	nOrd := scaled(BaseOrders, cfg.ScaleFactor)

	region := db.MustCreate("region", "r_regionkey", "r_name")
	for k, name := range regions {
		region.MustInsert(relation.Value(k), db.Intern(name))
	}

	nation := db.MustCreate("nation", "n_nationkey", "n_name", "n_regionkey")
	for k, n := range nations {
		nation.MustInsert(relation.Value(k), db.Intern(n.Name), relation.Value(n.RegionKey))
	}

	supplier := db.MustCreate("supplier", "s_suppkey", "s_name", "s_nationkey")
	for i := 1; i <= nSupp; i++ {
		supplier.MustInsert(
			relation.Value(i),
			db.Intern(fmt.Sprintf("Supplier#%09d", i)),
			relation.Value(rng.Intn(len(nations))),
		)
	}

	customer := db.MustCreate("customer", "c_custkey", "c_name", "c_nationkey")
	for i := 1; i <= nCust; i++ {
		customer.MustInsert(
			relation.Value(i),
			db.Intern(fmt.Sprintf("Customer#%09d", i)),
			relation.Value(rng.Intn(len(nations))),
		)
	}

	part := db.MustCreate("part", "p_partkey", "p_name")
	for i := 1; i <= nPart; i++ {
		part.MustInsert(relation.Value(i), db.Intern(partName(rng)))
	}

	// PARTSUPP: exactly 4 suppliers per part, spread deterministically like
	// dbgen's formula so supplier load is balanced.
	partsupp := db.MustCreate("partsupp", "ps_partkey", "ps_suppkey")
	for p := 1; p <= nPart; p++ {
		for i := 0; i < 4; i++ {
			s := partSupplier(p, i, nSupp)
			partsupp.MustInsert(relation.Value(p), relation.Value(s))
		}
	}

	// ORDERS: dbgen never assigns orders to custkeys divisible by 3, leaving
	// one third of customers orderless (dangling w.r.t. customer joins).
	orders := db.MustCreate("orders", "o_orderkey", "o_custkey")
	lineitem := db.MustCreate("lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber")
	for o := 1; o <= nOrd; o++ {
		c := 1 + rng.Intn(nCust)
		for c%3 == 0 {
			c = 1 + rng.Intn(nCust)
		}
		orders.MustInsert(relation.Value(o), relation.Value(c))
		nl := 1 + rng.Intn(7)
		for l := 1; l <= nl; l++ {
			p := 1 + rng.Intn(nPart)
			s := partSupplier(p, rng.Intn(4), nSupp)
			lineitem.MustInsert(
				relation.Value(o), relation.Value(p), relation.Value(s), relation.Value(l),
			)
		}
	}
	return db, nil
}

// partSupplier mirrors dbgen's PART_SUPP_BRIDGE: the i-th (0..3) supplier of
// part p among S suppliers, guaranteed distinct for the four i values when
// S ≥ 4.
func partSupplier(p, i, s int) int {
	return (p+i*(s/4+(p-1+i)/s))%s + 1
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

var partAdjectives = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
	"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
	"chiffon", "chocolate", "coral", "cornflower",
}

var partNouns = []string{
	"anchor", "ball", "bearing", "bracket", "casing", "coil", "cog", "dynamo",
	"fitting", "flange", "gear", "gasket", "hinge", "lever", "piston", "rod",
	"spring", "valve",
}

func partName(rng *rand.Rand) string {
	return partAdjectives[rng.Intn(len(partAdjectives))] + " " +
		partNouns[rng.Intn(len(partNouns))]
}

// NationName returns the TPC-H nation name for a key (for display).
func NationName(k int) string {
	if k < 0 || k >= len(nations) {
		return fmt.Sprintf("NATION-%d", k)
	}
	return nations[k].Name
}

// RegionName returns the TPC-H region name for a key.
func RegionName(k int) string {
	if k < 0 || k >= len(regions) {
		return fmt.Sprintf("REGION-%d", k)
	}
	return regions[k]
}

// NumNations returns the number of nations (always 25).
func NumNations() int { return len(nations) }
