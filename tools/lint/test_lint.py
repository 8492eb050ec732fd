"""Unit tests for sdbenc-lint: every rule has a must-fail and a must-pass
fixture, the legacy-directory exemption and the allowlist are pinned, and
the repo's own src/ tree must lint clean (the CI acceptance gate).

Run directly (`python3 tools/lint/test_lint.py`) or via ctest
(`lint_rules` / `lint_src`).
"""

import os
import shutil
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(os.path.dirname(_HERE))
_TESTDATA = os.path.join(_HERE, "testdata")
sys.path.insert(0, _HERE)

import sdbenc_lint  # noqa: E402


def lint(rel_paths, allow=(), repo_root=_REPO_ROOT):
    reported, suppressed = sdbenc_lint.lint_files(
        repo_root, list(rel_paths), list(allow)
    )
    return reported, suppressed


def fixture(name):
    return os.path.relpath(os.path.join(_TESTDATA, name), _REPO_ROOT)


class CompareRuleTest(unittest.TestCase):
    def test_bad_compare_flags_every_comparison(self):
        reported, _ = lint([fixture("bad_compare.cc")])
        self.assertEqual({f.rule for f in reported}, {"SDB001"})
        self.assertEqual(len(reported), 4)

    def test_good_compare_is_clean(self):
        reported, _ = lint([fixture("good_compare.cc")])
        self.assertEqual(reported, [])


class IvRuleTest(unittest.TestCase):
    def test_bad_iv_flags_every_declaration(self):
        reported, _ = lint([fixture("bad_iv.cc")])
        self.assertEqual({f.rule for f in reported}, {"SDB002"})
        self.assertEqual(len(reported), 4)

    def test_good_iv_is_clean(self):
        reported, _ = lint([fixture("good_iv.cc")])
        self.assertEqual(reported, [])

    def test_legacy_scheme_directory_is_exempt(self):
        # The same zero-IV fixture must fail outside src/schemes/ and pass
        # inside it: copy it into a scratch repo at both locations.
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(_TESTDATA, "legacy", "schemes_zero_iv.cc")
            legacy_dir = os.path.join(tmp, "src", "schemes")
            other_dir = os.path.join(tmp, "src", "storage")
            os.makedirs(legacy_dir)
            os.makedirs(other_dir)
            shutil.copy(src, os.path.join(legacy_dir, "zero_iv.cc"))
            shutil.copy(src, os.path.join(other_dir, "zero_iv.cc"))
            reported, _ = lint(
                ["src/schemes/zero_iv.cc", "src/storage/zero_iv.cc"],
                repo_root=tmp,
            )
            self.assertEqual(len(reported), 1)
            self.assertEqual(reported[0].path, "src/storage/zero_iv.cc")
            self.assertEqual(reported[0].rule, "SDB002")


class RngRuleTest(unittest.TestCase):
    def test_bad_rng_flags_each_source(self):
        reported, _ = lint([fixture("bad_rng.cc")])
        self.assertEqual({f.rule for f in reported}, {"SDB003"})
        self.assertEqual(len(reported), 3)

    def test_good_rng_is_clean(self):
        reported, _ = lint([fixture("good_rng.cc")])
        self.assertEqual(reported, [])


class StatusRuleTest(unittest.TestCase):
    def _paths(self, cc):
        return [fixture("status_api.h"), fixture(cc)]

    def test_bad_status_flags_every_discard(self):
        reported, _ = lint(self._paths("bad_status.cc"))
        reported = [f for f in reported if f.rule == "SDB004"]
        self.assertEqual(len(reported), 3)
        flagged = {f.snippet.split("(")[0] for f in reported}
        self.assertEqual(
            flagged, {"store.PutRecord", "FlushJournal", "store.GetRecord"}
        )

    def test_good_status_is_clean(self):
        reported, _ = lint(self._paths("good_status.cc"))
        self.assertEqual([f for f in reported if f.rule == "SDB004"], [])


class IntrinsicsRuleTest(unittest.TestCase):
    def test_bad_intrinsics_flags_each_line(self):
        reported, _ = lint([fixture("bad_intrinsics.cc")])
        self.assertEqual({f.rule for f in reported}, {"SDB005"})
        self.assertEqual(len(reported), 4)


class FsyncRuleTest(unittest.TestCase):
    def test_bad_fsync_flags_each_call(self):
        reported, _ = lint([fixture("bad_fsync.cc")])
        self.assertEqual({f.rule for f in reported}, {"SDB006"})
        self.assertEqual(len(reported), 2)

    def test_good_fsync_is_clean(self):
        reported, _ = lint([fixture("good_fsync.cc")])
        self.assertEqual(reported, [])

    def test_wal_directory_is_exempt(self):
        # The same raw-fsync fixture must fail outside src/storage/wal/ and
        # pass inside it.
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(_TESTDATA, "bad_fsync.cc")
            wal_dir = os.path.join(tmp, "src", "storage", "wal")
            other_dir = os.path.join(tmp, "src", "core")
            os.makedirs(wal_dir)
            os.makedirs(other_dir)
            shutil.copy(src, os.path.join(wal_dir, "sync.cc"))
            shutil.copy(src, os.path.join(other_dir, "sync.cc"))
            reported, _ = lint(
                ["src/storage/wal/sync.cc", "src/core/sync.cc"],
                repo_root=tmp,
            )
            self.assertEqual(len(reported), 2)
            self.assertTrue(
                all(f.path == "src/core/sync.cc" for f in reported)
            )
            self.assertEqual({f.rule for f in reported}, {"SDB006"})


class RawSyncRuleTest(unittest.TestCase):
    def test_bad_mutex_flags_raw_primitives_and_unguarded_member(self):
        reported, _ = lint([fixture("bad_mutex.cc")])
        reported = [f for f in reported if f.rule == "SDB007"]
        self.assertEqual(len(reported), 6)
        self.assertTrue(
            any("state_mu_" in f.message for f in reported),
            "the unguarded wrapped member must be flagged",
        )

    def test_good_mutex_is_clean(self):
        reported, _ = lint([fixture("good_mutex.cc")])
        self.assertEqual(reported, [])

    def test_wrapper_files_are_exempt(self):
        # The same raw-primitive fixture must fail anywhere in src/ but
        # pass at the wrapper paths, which hold the std types by design.
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(_TESTDATA, "bad_mutex.cc")
            util_dir = os.path.join(tmp, "src", "util")
            other_dir = os.path.join(tmp, "src", "core")
            os.makedirs(util_dir)
            os.makedirs(other_dir)
            shutil.copy(src, os.path.join(util_dir, "thread_annotations.h"))
            shutil.copy(src, os.path.join(other_dir, "queue.cc"))
            reported, _ = lint(
                ["src/util/thread_annotations.h", "src/core/queue.cc"],
                repo_root=tmp,
            )
            sdb007 = [f for f in reported if f.rule == "SDB007"]
            self.assertTrue(sdb007)
            self.assertTrue(
                all(f.path == "src/core/queue.cc" for f in sdb007)
            )


class CvWaitRuleTest(unittest.TestCase):
    def test_bad_cv_wait_flags_each_predicate_less_wait(self):
        reported, _ = lint([fixture("bad_cv_wait.cc")])
        reported = [f for f in reported if f.rule == "SDB008"]
        self.assertEqual(len(reported), 3)
        flagged = {f.message.split("'")[1] for f in reported}
        self.assertEqual(flagged, {"wait", "wait_for", "wait_until"})

    def test_good_cv_wait_is_clean(self):
        reported, _ = lint([fixture("good_cv_wait.cc")])
        self.assertEqual([f for f in reported if f.rule == "SDB008"], [])


class PlannerPurityRuleTest(unittest.TestCase):
    def _lint_at(self, fixture_name, rel_paths):
        # The rule is scoped to src/query/planner.*: copy the fixture to
        # each requested path of a scratch tree and lint them together.
        with tempfile.TemporaryDirectory() as tmp:
            for rel in rel_paths:
                dst = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                shutil.copy(os.path.join(_TESTDATA, fixture_name), dst)
            reported, _ = lint(rel_paths, repo_root=tmp)
            return [f for f in reported if f.rule == "SDB009"]

    def test_bad_planner_flags_each_live_input(self):
        reported = self._lint_at(
            "bad_planner_purity.cc",
            ["src/query/planner.cc", "src/query/planner.h"],
        )
        self.assertEqual(len(reported), 10)
        flagged = {f.message.split("'")[1] for f in reported}
        self.assertEqual(
            flagged,
            {
                "Parallelism",
                "obs::Registry",
                "NowNs",
                "steady_clock",
                "hardware_concurrency",
            },
        )

    def test_rule_is_scoped_to_the_planner(self):
        reported = self._lint_at(
            "bad_planner_purity.cc", ["src/query/engine.cc"]
        )
        self.assertEqual(reported, [])

    def test_good_planner_is_clean(self):
        reported = self._lint_at(
            "good_planner_purity.cc", ["src/query/planner.cc"]
        )
        self.assertEqual(reported, [])


class AllowlistTest(unittest.TestCase):
    def test_allowlist_suppresses_and_tracks_usage(self):
        entry = sdbenc_lint.AllowEntry(
            rule="SDB002",
            path_prefix=fixture("bad_iv.cc"),
            substring="zero_iv",
            rationale="test",
        )
        reported, suppressed = lint([fixture("bad_iv.cc")], allow=[entry])
        self.assertTrue(entry.used)
        self.assertEqual(len(suppressed), 1)
        self.assertEqual(len(reported), 3)

    def test_wrong_rule_does_not_suppress(self):
        entry = sdbenc_lint.AllowEntry(
            rule="SDB001",
            path_prefix=fixture("bad_iv.cc"),
            substring="",
            rationale="test",
        )
        reported, suppressed = lint([fixture("bad_iv.cc")], allow=[entry])
        self.assertFalse(entry.used)
        self.assertEqual(suppressed, [])
        self.assertEqual(len(reported), 4)

    def test_repo_allowlist_parses_and_every_entry_is_used(self):
        conf = os.path.join(_HERE, "allowlist.conf")
        entries = sdbenc_lint.parse_allowlist(conf)
        self.assertTrue(entries)
        self.assertTrue(all(e.rationale for e in entries))
        rel = sdbenc_lint.collect_sources(_REPO_ROOT, ["src"])
        sdbenc_lint.lint_files(_REPO_ROOT, rel, entries)
        stale = [e for e in entries if not e.used]
        self.assertEqual(stale, [], "stale allowlist entries")

    def test_stale_entry_is_a_hard_failure(self):
        # main() must exit non-zero when an allowlist entry suppresses
        # nothing, even with zero findings reported.
        with tempfile.TemporaryDirectory() as tmp:
            src_dir = os.path.join(tmp, "src")
            os.makedirs(src_dir)
            shutil.copy(
                os.path.join(_TESTDATA, "good_compare.cc"),
                os.path.join(src_dir, "clean.cc"),
            )
            conf = os.path.join(tmp, "allow.conf")
            with open(conf, "w", encoding="utf-8") as fh:
                fh.write("SDB002 src/gone.cc -- file was deleted\n")
            rc = sdbenc_lint.main(
                ["--repo-root", tmp, "--allowlist", conf, "src"]
            )
            self.assertEqual(rc, 1)


class SrcTreeTest(unittest.TestCase):
    def test_src_lints_clean_with_repo_allowlist(self):
        conf = os.path.join(_HERE, "allowlist.conf")
        entries = sdbenc_lint.parse_allowlist(conf)
        rel = sdbenc_lint.collect_sources(_REPO_ROOT, ["src"])
        self.assertGreater(len(rel), 100)
        reported, _ = sdbenc_lint.lint_files(_REPO_ROOT, rel, entries)
        self.assertEqual(
            [f.render() for f in reported], [], "src/ must lint clean"
        )


class PreprocessTest(unittest.TestCase):
    def test_comments_and_strings_are_blanked(self):
        text = (
            '// memcmp(tag, x, 16)\n'
            'const char* s = "memcmp(tag)";\n'
            "/* rand() */ int x = 0;\n"
        )
        clean = sdbenc_lint.strip_comments_and_strings(text)
        self.assertNotIn("memcmp", clean)
        self.assertNotIn("rand", clean)
        self.assertEqual(clean.count("\n"), text.count("\n"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
