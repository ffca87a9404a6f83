//===-- bench/e2e/corpus.h - batch_corpus input programs --------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 23 array-manipulating programs the batch_corpus workload verifies,
/// each with its known answer: every access of an ExpectSafe program is in
/// bounds (no WARNING or ERROR may be raised), and each of the three bug
/// programs has an out-of-bounds access (at least one must be raised).
///
/// A frozen copy of the Section 7.2 corpus (bench/corpus/array_programs.h)
/// taken when the benchmark was defined: the benchmark's inputs must not
/// move when the library's own test data changes.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_BENCH_E2E_CORPUS_H
#define DAI_BENCH_E2E_CORPUS_H

namespace dai::bench {

struct CorpusProgram {
  const char *Name;
  const char *Source;
  bool ExpectSafe; ///< Every access is dynamically in bounds.
};

inline const CorpusProgram Corpus[] = {
    {"get_guarded", R"(
function get(a, i) {
  var v = 0;
  if (i >= 0) { if (i < a.length) { v = a[i]; } }
  return v;
}
function main() {
  var xs = [1, 2, 3];
  var r = get(xs, 2);
  return r;
})",
     true},

    {"get_direct", R"(
function at(a, i) { return a[i]; }
function main() {
  var xs = [4, 5, 6, 7];
  var r = at(xs, 1);
  return r;
})",
     true},

    {"first_wrapped", R"(
function at(a, i) { return a[i]; }
function first(a) { var r = at(a, 0); return r; }
function main() {
  var xs = [9, 8];
  var r = first(xs);
  return r;
})",
     true},

    {"swap", R"(
function swap(a, i, j) {
  var t = a[i];
  a[i] = a[j];
  a[j] = t;
  return 0;
}
function main() {
  var xs = [1, 2, 3, 4];
  var r = swap(xs, 0, 3);
  return xs[0];
})",
     true},

    {"contains", R"(
function contains(a, x) {
  var i = 0;
  var found = 0;
  while (i < a.length) {
    if (a[i] == x) { found = 1; }
    i = i + 1;
  }
  return found;
}
function main() {
  var xs = [3, 1, 4, 1, 5];
  var ys = [9];
  var r = contains(xs, 4);
  var q = contains(ys, 9);
  return r + q;
})",
     true},

    {"index_of", R"(
function indexOf(a, x) {
  var i = 0;
  var at = 0 - 1;
  while (i < a.length) {
    if (a[i] == x) { if (at < 0) { at = i; } }
    i = i + 1;
  }
  return at;
}
function main() {
  var xs = [2, 7, 1, 8];
  var r = indexOf(xs, 1);
  return r;
})",
     true},

    {"equals", R"(
function equals(a, b) {
  var same = 1;
  if (a.length != b.length) { same = 0; }
  var i = 0;
  while (i < a.length) {
    if (same == 1) {
      if (i < b.length) {
        if (a[i] != b[i]) { same = 0; }
      }
    }
    i = i + 1;
  }
  return same;
}
function main() {
  var xs = [1, 2, 3];
  var ys = [1, 2, 3];
  var r = equals(xs, ys);
  return r;
})",
     true},

    {"sum", R"(
function sum(a) {
  var i = 0;
  var s = 0;
  while (i < a.length) {
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
function sumFrom(a, start) {
  var i = start;
  var s = 0;
  while (i < a.length) {
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
function main() {
  var xs = [10, 20, 30];
  var r = sum(xs);
  var t = sumFrom(xs, 1);
  return r + t;
})",
     true},

    {"max_element", R"(
function maxOf(a) {
  var best = a[0];
  var i = 1;
  while (i < a.length) {
    if (a[i] > best) { best = a[i]; }
    i = i + 1;
  }
  return best;
}
function main() {
  var xs = [4, 9, 2];
  var ys = [1, 2, 3, 4, 5, 6];
  var r = maxOf(xs);
  var q = maxOf(ys);
  return r + q;
})",
     true},

    {"fill", R"(
function fill(a, v) {
  var i = 0;
  while (i < a.length) {
    a[i] = v;
    i = i + 1;
  }
  return 0;
}
function main() {
  var xs = [0, 0, 0, 0, 0];
  var r = fill(xs, 7);
  return xs[4];
})",
     true},

    {"count_matches", R"(
function count(a, x) {
  var i = 0;
  var n = 0;
  while (i < a.length) {
    if (a[i] == x) { n = n + 1; }
    i = i + 1;
  }
  return n;
}
function main() {
  var xs = [1, 1, 2, 1];
  var r = count(xs, 1);
  return r;
})",
     true},

    {"reverse_in_place", R"(
function swap(a, i, j) {
  var t = a[i];
  a[i] = a[j];
  a[j] = t;
  return 0;
}
function reverse(a) {
  var lo = 0;
  var hi = a.length - 1;
  while (lo < hi) {
    var r = swap(a, lo, hi);
    lo = lo + 1;
    hi = hi - 1;
  }
  return 0;
}
function main() {
  var xs = [1, 2, 3, 4, 5];
  var r = reverse(xs);
  return xs[0];
})",
     true},

    {"last_element", R"(
function last(a) {
  var v = 0;
  if (a.length > 0) { v = a[a.length - 1]; }
  return v;
}
function main() {
  var xs = [6, 7];
  var r = last(xs);
  return r;
})",
     true},

    {"two_sizes_direct", R"(
function at(a, i) { return a[i]; }
function main() {
  var small = [1, 2];
  var large = [1, 2, 3, 4, 5];
  var x = at(small, 1);
  var y = at(large, 4);
  return x + y;
})",
     true},

    {"wrapped_two_deep", R"(
function at(a, i) { return a[i]; }
function pick(a, i) { var r = at(a, i); return r; }
function main() {
  var xs = [5, 6];
  var ys = [7, 8, 9];
  var x = pick(xs, 1);
  var y = pick(ys, 2);
  return x + y;
})",
     true},

    {"clamp_index", R"(
function clampGet(a, i) {
  var j = i;
  if (j < 0) { j = 0; }
  if (j >= a.length) { j = a.length - 1; }
  var v = 0;
  if (a.length > 0) { v = a[j]; }
  return v;
}
function main() {
  var xs = [1, 2, 3];
  var r = clampGet(xs, 99);
  return r;
})",
     true},

    {"copy_prefix", R"(
function copyInto(dst, src, n) {
  var i = 0;
  while (i < n) {
    if (i < dst.length) {
      if (i < src.length) {
        dst[i] = src[i];
      }
    }
    i = i + 1;
  }
  return 0;
}
function main() {
  var a = [0, 0, 0];
  var b = [4, 5, 6, 7];
  var r = copyInto(a, b, 3);
  return a[2];
})",
     true},

    {"dot_product", R"(
function dot(a, b) {
  var i = 0;
  var s = 0;
  while (i < a.length) {
    if (i < b.length) {
      s = s + a[i] * b[i];
    }
    i = i + 1;
  }
  return s;
}
function main() {
  var xs = [1, 2];
  var ys = [3, 4];
  var r = dot(xs, ys);
  return r;
})",
     true},

    {"binary_searchish", R"(
function find(a, x) {
  var lo = 0;
  var hi = a.length;
  var at = 0 - 1;
  while (lo < hi) {
    var mid = lo + (hi - lo) / 2;
    if (mid >= 0) {
      if (mid < a.length) {
        if (a[mid] == x) { at = mid; }
        if (a[mid] < x) { lo = mid + 1; } else { hi = mid; }
      }
    }
  }
  return at;
}
function main() {
  var xs = [1, 3, 5, 7, 9];
  var r = find(xs, 5);
  return r;
})",
     true},

    {"shift_window", R"(
function windowSum(a, start) {
  var s = 0;
  var i = start;
  while (i < start + 2) {
    if (i >= 0) {
      if (i < a.length) {
        s = s + a[i];
      }
    }
    i = i + 1;
  }
  return s;
}
function main() {
  var xs = [2, 4, 6, 8];
  var r = windowSum(xs, 1);
  return r;
})",
     true},

    {"off_by_one_bug", R"(
function scan(a) {
  var i = 0;
  var s = 0;
  while (i <= a.length) {
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
function main() {
  var xs = [1, 2, 3];
  var r = scan(xs);
  return r;
})",
     false},

    {"unchecked_param_bug", R"(
function at(a, i) { return a[i]; }
function main(n) {
  var xs = [1, 2, 3];
  var r = at(xs, n);
  return r;
})",
     false},

    {"negative_index_bug", R"(
function before(a, i) { return a[i - 1]; }
function main() {
  var xs = [5, 6, 7];
  var r = before(xs, 0);
  return r;
})",
     false},
};

inline constexpr int NumCorpusPrograms = sizeof(Corpus) / sizeof(Corpus[0]);

} // namespace dai::bench

#endif // DAI_BENCH_E2E_CORPUS_H
