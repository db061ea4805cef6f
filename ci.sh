#!/bin/sh
# Local CI: build, full test suite, then a smoke run of the CLI with the
# observability layer switched on.
set -eu

cd "$(dirname "$0")"

echo "== build =="
dune build

echo "== checks: the row codec stays at the durable and wire boundaries =="
# Heaps hold decoded rows, so only images (storage/database.ml), the
# codec itself (storage/dtype.ml) and the wire protocol (serve/protocol.ml)
# may encode or decode a row; and a snapshot clone shares tables instead
# of round-tripping the database through the serializer.
codec_uses=$(grep -rnE '(encode|decode)_row' lib \
  | grep -vE '^lib/(storage/database\.ml|storage/dtype\.mli?|serve/protocol\.mli?):' || true)
[ -z "$codec_uses" ] || {
  echo "$codec_uses" >&2
  echo "codec check FAILED: row encode/decode outside the durable and wire boundaries" >&2
  exit 1
}
clone_body=$(awk '/^let clone /{on=1; print; next} on && /^(let|and|type|module|exception) /{on=0} on' lib/storage/database.ml)
[ -n "$clone_body" ] || {
  echo "codec check FAILED: no 'let clone' in lib/storage/database.ml" >&2
  exit 1
}
if echo "$clone_body" | grep -q 'serialize'; then
  echo "codec check FAILED: Database.clone calls serialize" >&2
  exit 1
fi
echo "codec check ok"

echo "== checks: no polymorphic max, min or compare in lib/align =="
# Without flambda, Stdlib's max, min and compare call the polymorphic
# comparison (caml_greaterequal, caml_compare) on every use; the DP
# kernels use int-annotated helpers or Int.max/Int.min/Int.compare. A bare
# name, in code or in a comment, fails the check.
poly_uses=$(grep -nE "(^|[^._A-Za-z0-9'])(max|min|compare)([^_A-Za-z0-9']|$)" lib/align/*.ml || true)
[ -z "$poly_uses" ] || {
  echo "$poly_uses" >&2
  echo "kernel check FAILED: bare max/min/compare in lib/align" >&2
  exit 1
}
echo "kernel check ok"

echo "== checks: one evaluator =="
# Column references are bound once per statement: Eval compiles an
# expression against a scope, and a row is evaluated with no name work.
# A per-row lookup must not come back beside it: neither a helper that
# resolves a name against a row's bindings nor an evaluation environment
# with a lookup field.
lookup_uses=$( (grep -rnwE 'lookup_in|env_of' lib; \
  grep -rnE 'Eval\.(env|lookup)([^_A-Za-z0-9]|$)' lib; \
  grep -nE '(type env|lookup *:)' lib/sqlx/eval.ml lib/sqlx/eval.mli) || true)
[ -z "$lookup_uses" ] || {
  echo "$lookup_uses" >&2
  echo "evaluator check FAILED: per-row name lookup in lib" >&2
  exit 1
}
echo "evaluator check ok"

echo "== checks: one reader =="
# Every binary decoder reads through Byte_reader, whose bounds check and
# error are the only ones: no decoder exception of its own, no second
# `need`, and no Invalid_argument handler that hides which read failed.
decoders="lib/serve/protocol.ml lib/storage/database.ml lib/storage/wal.ml
  lib/shard/manifest.ml lib/adapter/codec.ml lib/storage/dtype.ml"
reader_escapes=$( (grep -rnE 'exception +(Malformed|Corrupt|Torn)\b' lib; \
  grep -rnE 'let +(rec +)?need\b' lib | grep -v '^lib/storage/byte_reader\.ml:'; \
  grep -nw 'Invalid_argument' $decoders) || true)
[ -z "$reader_escapes" ] || {
  echo "$reader_escapes" >&2
  echo "reader check FAILED: a decoder bypasses Byte_reader" >&2
  exit 1
}
echo "reader check ok"

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

echo "== experiments: checked records (exit status gates every check) =="
# Each checked experiment prints one JSON record; bench/main.exe exits
# non-zero and names every false check.
GENALG_PAR_N=2500 GENALG_VEC_N=4000 dune exec bench/main.exe -- CACHE PAR OPT VEC AVAIL SHARD

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
