#!/usr/bin/env bash
# Checks that every relative markdown link in the repo's documentation
# resolves — the FILE must exist, and when the link carries a #fragment the
# ANCHOR must match a heading in the target document (GitHub slug rules:
# lowercase, punctuation stripped, spaces to dashes).  The documentation
# surface is every *.md outside build trees: top-level markdown, docs/, and
# in-tree READMEs (src/**/README.md included).  External
# (http/https/mailto) links are skipped.  Run from anywhere:
#
#   scripts/check_doc_links.sh
#
# Exits non-zero listing every broken link or dangling anchor, so CI can
# gate on it.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
status=0

docs=$(find "$repo_root" -path "$repo_root/build*" -prune -o \
       -name "*.md" -print | sort)

# GitHub-style anchor slugs of every heading in $1, one per line.
# Duplicate headings get "-1", "-2", ... suffixes exactly as GitHub
# numbers them, so links to both the first and repeated occurrences
# resolve — and a "-N" anchor with no such duplicate does NOT.
anchors_of() {
  # Strip fenced code blocks first: a '# comment' inside ```sh``` is not a
  # heading and must not mint a phantom slug (or shift the -N numbering).
  awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$1" 2>/dev/null \
    | grep -E '^#{1,6} ' | sed -E 's/^#{1,6} +//' \
    | tr '[:upper:]' '[:lower:]' \
    | sed -E 's/[^a-z0-9 _-]//g; s/ /-/g' \
    | awk '{ n = seen[$0]++; if (n) print $0 "-" n; else print }'
}

check_anchor() {
  # $1 = markdown file, $2 = anchor (no leading '#'): exact slug match.
  anchors_of "$1" | grep -Fxq -- "$2"
}

for doc in $docs; do
  dir="$(dirname "$doc")"
  # Extract the target of every inline markdown link: [text](target)
  targets=$(grep -o '\[[^][]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
  for target in $targets; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"
    anchor=""
    case "$target" in
      *"#"*) anchor="${target#*#}" ;;
    esac
    if [ -n "$path" ] && [ ! -e "$dir/$path" ]; then
      echo "BROKEN: $doc -> $target"
      status=1
      continue
    fi
    # Anchor check: same-document (#foo) or into another markdown file.
    if [ -n "$anchor" ]; then
      if [ -z "$path" ]; then
        anchor_file="$doc"
      else
        anchor_file="$dir/$path"
      fi
      case "$anchor_file" in
        *.md)
          if ! check_anchor "$anchor_file" "$anchor"; then
            echo "DANGLING ANCHOR: $doc -> $target"
            status=1
          fi
          ;;
      esac
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "all documentation links and anchors resolve"
fi
exit "$status"
