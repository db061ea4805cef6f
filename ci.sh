#!/bin/sh
# Local CI: build, full test suite, then a smoke run of the CLI with the
# observability layer switched on.
set -eu

cd "$(dirname "$0")"

echo "== build =="
dune build

echo "== tests =="
dune runtest

echo "== tests: every suite of test/main.exe standalone =="
# No result may depend on test order: each suite runs in a process of its
# own and must pass, with all of its tests run, without the suites that
# precede it in the full run.
MAIN=_build/default/test/main.exe
LIST=$("$MAIN" list --color=never | awk -F '  +' 'NF >= 3 && $2 ~ /^ *[0-9]+$/ {print $1}')
SUITES=$(echo "$LIST" | sort -u)
while IFS= read -r suite; do
  re=$(printf '%s' "$suite" | sed 's/[][\\.^$*+?(){}|]/\\&/g')
  want=$(echo "$LIST" | grep -cxF "$suite")
  out=$("$MAIN" test "^$re\$" --color=never 2>&1) \
    && echo "$out" | grep -qE "Test Successful in .* $want tests? run" || {
    echo "$out" >&2
    echo "standalone suite FAILED: $suite" >&2
    exit 1
  }
done <<SUITES_END
$SUITES
SUITES_END
echo "$(echo "$SUITES" | wc -l) suites pass standalone"

echo "== smoke: demo warehouse + stats + EXPLAIN ANALYZE =="
DB=$(mktemp -d)/smoke.db
dune exec bin/genalg.exe -- demo --output "$DB" >/dev/null

# inventory + instrument snapshot for a traced statement
dune exec bin/genalg.exe -- stats "$DB" \
  --sql "SELECT organism, count(*) FROM sequences GROUP BY organism"

# operator tree with live row counts and timings
dune exec bin/genalg.exe -- query "$DB" \
  "EXPLAIN ANALYZE SELECT organism, count(*) AS n FROM sequences WHERE length > 500 GROUP BY organism"

rm -rf "$(dirname "$DB")"

echo "== smoke: cache layers (CACHE bench, warm hit rate must be nonzero) =="
CACHE_OUT=$(dune exec bench/main.exe -- CACHE)
echo "$CACHE_OUT"
echo "$CACHE_OUT" | grep -q "cache-smoke: warm-hit-rate-nonzero=yes" || {
  echo "cache smoke FAILED: warm hit rate is zero" >&2
  exit 1
}

echo "== smoke: parallel engine (PAR bench: hash join >=2x, jobs-identical) =="
PAR_OUT=$(GENALG_PAR_N=2500 dune exec bench/main.exe -- PAR)
echo "$PAR_OUT"
echo "$PAR_OUT" | grep -q "par-smoke: hash-join-2x=yes" || {
  echo "parallel smoke FAILED: hash join is not >=2x faster than nested loop" >&2
  exit 1
}
echo "$PAR_OUT" | grep -q "par-smoke: jobs-results-identical=yes" || {
  echo "parallel smoke FAILED: jobs>1 changed query or alignment results" >&2
  exit 1
}

echo "== smoke: cost-based optimizer (OPT bench: never loses, plans differ) =="
OPT_OUT=$(dune exec bench/main.exe -- OPT)
echo "$OPT_OUT"
echo "$OPT_OUT" | grep -q "opt-smoke: never-loses=yes" || {
  echo "optimizer smoke FAILED: cost-based plans lost to the unanalyzed ones beyond noise" >&2
  exit 1
}
echo "$OPT_OUT" | grep -q "opt-smoke: results-identical=yes" || {
  echo "optimizer smoke FAILED: cost-based planner changed a result set" >&2
  exit 1
}
echo "$OPT_OUT" | grep -q "opt-smoke: plans-differ=yes" || {
  echo "optimizer smoke FAILED: statistics never changed a chosen access path" >&2
  exit 1
}

echo "== smoke: vectorized scans (VEC bench: results match a naive reference) =="
VEC_OUT=$(GENALG_VEC_N=4000 dune exec bench/main.exe -- VEC)
echo "$VEC_OUT"
echo "$VEC_OUT" | grep -q "vec-smoke: results-identical=yes" || {
  echo "vectorized smoke FAILED: vectorized scan disagrees with the naive reference" >&2
  exit 1
}
echo "$VEC_OUT" | grep -q "vec-smoke: jobs-results-identical=yes" || {
  echo "vectorized smoke FAILED: jobs>1 changed vectorized results" >&2
  exit 1
}

echo "== smoke: availability under faults (AVAIL bench + crash matrix) =="
AVAIL_OUT=$(dune exec bench/main.exe -- AVAIL)
echo "$AVAIL_OUT"
echo "$AVAIL_OUT" | grep -q "avail-smoke: zero-faults-when-disabled=yes" || {
  echo "availability smoke FAILED: faults fired with injection disabled" >&2
  exit 1
}
echo "$AVAIL_OUT" | grep -q "avail-smoke: deterministic=yes" || {
  echo "availability smoke FAILED: replay under a fixed seed was not reproducible" >&2
  exit 1
}
echo "$AVAIL_OUT" | grep -q "avail-smoke: warehouse-ge-mediator=yes" || {
  echo "availability smoke FAILED: warehouse availability fell below the mediator's" >&2
  exit 1
}
echo "$AVAIL_OUT" | grep -q "avail-smoke: crash-recovery=ok" || {
  echo "availability smoke FAILED: a crash point left the database torn" >&2
  exit 1
}

echo "== smoke: serve layer (SERVE bench: concurrent sessions + WAL recovery) =="
SERVE_OUT=$(dune exec bench/main.exe -- SERVE)
echo "$SERVE_OUT"
echo "$SERVE_OUT" | grep -q "serve-smoke: sessions=8 zero-failed=yes" || {
  echo "serve smoke FAILED: a query failed under 8 concurrent sessions" >&2
  exit 1
}
echo "$SERVE_OUT" | grep -q "serve-smoke: p99-reported=yes" || {
  echo "serve smoke FAILED: no p99 latency reported" >&2
  exit 1
}
echo "$SERVE_OUT" | grep -q "serve-smoke: wal-recovery=ok" || {
  echo "serve smoke FAILED: WAL replay lost an acknowledged commit" >&2
  exit 1
}
echo "$SERVE_OUT" | grep -q "serve-smoke: wal-crash-matrix=ok" || {
  echo "serve smoke FAILED: a group-commit crash point lost an acked commit" >&2
  exit 1
}

echo "== smoke: sharding (SHARD bench: pruning scaling, identical results, failover) =="
SHARD_OUT=$(dune exec bench/main.exe -- SHARD)
echo "$SHARD_OUT"
echo "$SHARD_OUT" | grep -q "shard-smoke: scan-scaling-1.6x=yes" || {
  echo "shard smoke FAILED: 4-shard pruned scans are not >=1.6x one shard" >&2
  exit 1
}
echo "$SHARD_OUT" | grep -q "shard-smoke: results-identical=yes" || {
  echo "shard smoke FAILED: scatter-gather changed a result or an error" >&2
  exit 1
}
echo "$SHARD_OUT" | grep -q "shard-smoke: failover-40of40=yes" || {
  echo "shard smoke FAILED: a query failed under the crash-looping primary" >&2
  exit 1
}

echo "== smoke: cluster durability (CLUSTER bench: crash matrix + bounded resync) =="
CLUSTER_OUT=$(dune exec bench/main.exe -- CLUSTER)
echo "$CLUSTER_OUT"
echo "$CLUSTER_OUT" | grep -q "cluster-smoke: crash-matrix-40of40=yes" || {
  echo "cluster smoke FAILED: a crash-matrix query diverged from the single-node engine" >&2
  exit 1
}
echo "$CLUSTER_OUT" | grep -q "cluster-smoke: resync-bounded=yes" || {
  echo "cluster smoke FAILED: resync replayed more statements than members missed" >&2
  exit 1
}
echo "$CLUSTER_OUT" | grep -q "cluster-smoke: recovery=ok" || {
  echo "cluster smoke FAILED: a restarted coordinator did not heal back to serving" >&2
  exit 1
}

echo "== docs: index completeness + intra-repo link integrity =="
for f in docs/*.md; do
  b=$(basename "$f")
  [ "$b" = "ARCHITECTURE.md" ] && continue
  grep -q "]($b)" docs/ARCHITECTURE.md || {
    echo "docs check FAILED: docs/$b is not in docs/ARCHITECTURE.md's doc index" >&2
    exit 1
  }
done
for f in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md; do
  dir=$(dirname "$f")
  for target in $(grep -o ']([^)]*\.md[^)]*)' "$f" | sed 's/^](//; s/)$//; s/#.*$//'); do
    case "$target" in
      http://*|https://*) continue ;;
    esac
    [ -f "$dir/$target" ] || {
      echo "docs check FAILED: $f links to missing $target" >&2
      exit 1
    }
  done
done
# heading anchors: every ](file.md#anchor) must slugify to a real heading
for f in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md; do
  dir=$(dirname "$f")
  for link in $(grep -o ']([^)#]*\.md#[^)]*)' "$f" | sed 's/^](//; s/)$//'); do
    target=${link%%#*}
    anchor=${link#*#}
    [ -f "$dir/$target" ] || continue  # missing files reported above
    slugs=$(grep '^#' "$dir/$target" | sed 's/^#*[[:space:]]*//' \
      | tr 'A-Z' 'a-z' | sed 's/[^a-z0-9 -]//g; s/ /-/g')
    echo "$slugs" | grep -qx "$anchor" || {
      echo "docs check FAILED: $f links to $target#$anchor but no heading there slugifies to it" >&2
      exit 1
    }
  done
done
# instrument tables in docs/OBSERVABILITY.md must match the code, both
# ways: every documented name is a string literal under lib/ (cache.<name>.*
# rows against the Lru.create ~name literals; a <placeholder> suffix
# matches the literal prefix), and every Obs.counter/Obs.histogram literal
# is documented
doc_names=$(grep -oE '^\| `[^`]+` \|' docs/OBSERVABILITY.md | sed 's/^| `//; s/` |$//' | sort -u)
code_names=$(grep -rhoE 'Obs\.(counter|histogram) "[^"]+"' lib | sed 's/^[^"]*"//; s/"$//' | sort -u)
lru_names=$(grep -rhoE 'Lru\.create ~name:"[^"]+"' lib | sed 's/^[^"]*"//; s/"$//' | sort -u)
for n in $doc_names; do
  case "$n" in
    cache.*)
      family=${n#cache.}
      echo "$lru_names" | grep -qxF "${family%%.*}" || {
        echo "docs check FAILED: docs/OBSERVABILITY.md lists $n but no Lru.create ~name:\"${family%%.*}\" exists under lib/" >&2
        exit 1
      } ;;
    *"<"*)
      grep -rqF "\"${n%%<*}" lib || {
        echo "docs check FAILED: docs/OBSERVABILITY.md lists $n but no literal \"${n%%<*}...\" exists under lib/" >&2
        exit 1
      } ;;
    *)
      grep -rqF "\"$n\"" lib || {
        echo "docs check FAILED: docs/OBSERVABILITY.md lists $n but no literal \"$n\" exists under lib/" >&2
        exit 1
      } ;;
  esac
done
for n in $code_names; do
  echo "$doc_names" | grep -qxF "$n" || {
    echo "docs check FAILED: instrument $n is registered under lib/ but missing from docs/OBSERVABILITY.md" >&2
    exit 1
  }
done
echo "docs check ok"

echo "== ci ok =="
