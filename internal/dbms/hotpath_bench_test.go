package dbms_test

import (
	"testing"

	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/planner"
	"uplan/internal/sql"
	"uplan/internal/sqlancer"
	"uplan/internal/tlp"
)

// hotPathEngine returns an engine loaded with the campaign's schema
// shape (2 tables x 12 rows) and the generator that made it.
func hotPathEngine(b *testing.B, name string) (*dbms.Engine, *sqlancer.Generator) {
	b.Helper()
	e := dbms.MustNew(name)
	gen := sqlancer.New(1)
	for _, s := range gen.SchemaSQL(2, 12) {
		if _, err := e.Execute(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Analyze(); err != nil {
		b.Fatal(err)
	}
	return e, gen
}

// BenchmarkEngineHotPath times the engine-side steps of one campaign
// query, each over a fixed set of generated queries: parsing, EXPLAIN in
// each engine's JSON format, planning and executing SELECT * (the shape
// of every TLP query) and a whole TLP check.
func BenchmarkEngineHotPath(b *testing.B) {
	const n = 64
	b.Run("parse", func(b *testing.B) {
		_, gen := hotPathEngine(b, "postgresql")
		queries := make([]string, n)
		for i := range queries {
			queries[i] = gen.Query()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Parse(queries[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, name := range []string{"postgresql", "mysql", "tidb", "mongodb", "neo4j"} {
		b.Run("explain-json/"+name, func(b *testing.B) {
			e, gen := hotPathEngine(b, name)
			var plans []*explain.Plan
			for len(plans) < n {
				if p, err := e.NativePlan(gen.Query()); err == nil {
					plans = append(plans, p)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := explain.Serialize(plans[i%n], explain.FormatJSON); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("plan", func(b *testing.B) {
		e, gen := hotPathEngine(b, "postgresql")
		pl := planner.New(e.DB.Schema, e.Opts)
		stmts := make([]sql.Statement, n)
		for i := range stmts {
			table, pred := gen.PartitionableQuery()
			stmts[i] = sql.MustParse("SELECT * FROM " + table + " WHERE " + pred)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pl.Plan(stmts[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute-select-star", func(b *testing.B) {
		e, gen := hotPathEngine(b, "postgresql")
		stmts := make([]sql.Statement, n)
		for i := range stmts {
			table, pred := gen.PartitionableQuery()
			stmts[i] = sql.MustParse("SELECT * FROM " + table + " WHERE NOT (" + pred + ")")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ExecuteStmt(stmts[i%n]) // unresolved-column errors are part of the mix
		}
	})
	b.Run("tlp-check", func(b *testing.B) {
		e, gen := hotPathEngine(b, "postgresql")
		type part struct{ table, pred string }
		parts := make([]part, n)
		for i := range parts {
			parts[i].table, parts[i].pred = gen.PartitionableQuery()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := parts[i%n]
			tlp.Check(e, p.table, p.pred)
		}
	})
}
