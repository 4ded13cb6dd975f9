// Robustness sweeps for every parser that consumes bytes off the radio:
// random garbage must produce a clean ParseError (or parse), never a crash
// or an uncaught foreign exception. Seeded, so failures reproduce.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pointcut.h"
#include "db/journal.h"
#include "db/store.h"
#include "midas/node.h"
#include "midas/package.h"
#include "script/parser.h"
#include "tspace/tuplespace.h"

namespace pmp {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
    Bytes out;
    for (std::uint64_t n = rng.next_below(max_len); n > 0; --n) {
        out.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    return out;
}

std::string random_text(Rng& rng, std::size_t max_len, const std::string& alphabet) {
    std::string out;
    for (std::uint64_t n = rng.next_below(max_len); n > 0; --n) {
        out.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    return out;
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, ValueDecodeNeverCrashes) {
    Rng rng(GetParam());
    for (int i = 0; i < 500; ++i) {
        Bytes garbage = random_bytes(rng, 64);
        try {
            rt::Value v = rt::Value::decode(std::span<const std::uint8_t>(garbage));
            // If it decoded, it must re-encode decodably.
            rt::Value::decode(std::span<const std::uint8_t>(v.encode()));
        } catch (const ParseError&) {
        }
    }
}

TEST_P(FuzzSweep, PackageOpenNeverCrashes) {
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        Bytes garbage = random_bytes(rng, 128);
        try {
            auto [pkg, sig] =
                midas::ExtensionPackage::open(std::span<const std::uint8_t>(garbage));
            (void)pkg;
            (void)sig;
        } catch (const Error&) {  // ParseError or TypeError, both fine
        }
    }
}

TEST_P(FuzzSweep, MutatedPackagesNeverCrash) {
    // Start from a valid sealed package and flip random bytes: the decoder
    // must either reject cleanly or produce a package whose signature then
    // fails; nothing else.
    midas::ExtensionPackage pkg;
    pkg.name = "fuzz/pkg";
    pkg.script = "fun onEntry() { }";
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* X.*(..))", "onEntry", 0}};
    crypto::KeyStore keys;
    keys.add_key("f", to_bytes("k"));
    Bytes sealed = pkg.seal(keys, "f");
    crypto::TrustStore trust;
    trust.trust("f", to_bytes("k"));

    Rng rng(GetParam());
    for (int i = 0; i < 300; ++i) {
        Bytes mutated = sealed;
        for (std::uint64_t flips = 1 + rng.next_below(4); flips > 0; --flips) {
            mutated[rng.next_below(mutated.size())] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        try {
            auto [opened, sig] =
                midas::ExtensionPackage::open(std::span<const std::uint8_t>(mutated));
            Bytes payload = opened.signed_payload();
            trust.verify(std::span<const std::uint8_t>(payload), sig);
            // If verification passes, the *content* must be the original:
            // the MAC covers the canonical payload, so an attacker cannot
            // smuggle altered behaviour (flips may cancel or land in
            // non-semantic slack, which is fine).
            EXPECT_EQ(opened.name, pkg.name);
            EXPECT_EQ(opened.script, pkg.script);
            EXPECT_EQ(opened.version, pkg.version);
            ASSERT_EQ(opened.bindings.size(), pkg.bindings.size());
            EXPECT_EQ(opened.bindings[0].pointcut, pkg.bindings[0].pointcut);
        } catch (const Error&) {
        }
    }
}

TEST_P(FuzzSweep, ScriptParserNeverCrashes) {
    Rng rng(GetParam());
    const std::string alphabet =
        "abcdefghijklmnopqrstuvwxyz0123456789 \n\t(){}[];,.=+-*/%<>!&|\"'_";
    for (int i = 0; i < 500; ++i) {
        std::string source = random_text(rng, 80, alphabet);
        try {
            script::parse(source);
        } catch (const ParseError&) {
        }
    }
}

TEST_P(FuzzSweep, PointcutParserNeverCrashes) {
    Rng rng(GetParam());
    const std::string alphabet = "abcxyz*?+.(),&|! ";
    for (int i = 0; i < 500; ++i) {
        std::string source = random_text(rng, 40, alphabet);
        try {
            prose::Pointcut::parse(source);
        } catch (const ParseError&) {
        }
    }
}

// Exponential-time reference matcher: obviously correct, usable only on
// tiny inputs. The production matcher must agree with it everywhere.
bool glob_oracle(std::string_view p, std::string_view t) {
    if (p.empty()) return t.empty();
    if (p[0] == '*') {
        return glob_oracle(p.substr(1), t) || (!t.empty() && glob_oracle(p, t.substr(1)));
    }
    if (t.empty()) return false;
    if (p[0] == '?' || p[0] == t[0]) return glob_oracle(p.substr(1), t.substr(1));
    return false;
}

TEST_P(FuzzSweep, GlobMatchAgreesWithOracleAndStaysLinear) {
    Rng rng(GetParam());
    const std::string alphabet = "ab*?";
    for (int i = 0; i < 2000; ++i) {
        std::string pattern = random_text(rng, 12, alphabet);
        std::string text = random_text(rng, 12, "ab");
        EXPECT_EQ(prose::glob_match(pattern, text), glob_oracle(pattern, text))
            << "pattern='" << pattern << "' text='" << text << "'";
    }

    // Adversarial star-heavy patterns against long near-miss texts: a
    // matcher with unbounded backtracking goes exponential here and the
    // test times out; the two-pointer scan finishes instantly.
    std::string almost(5000, 'a');
    almost.push_back('b');
    EXPECT_TRUE(prose::glob_match("*a*a*a*a*a*a*a*a*b", almost));
    EXPECT_FALSE(prose::glob_match("*a*a*a*a*a*a*a*a*c", almost));
    EXPECT_TRUE(prose::glob_match("*a*a*a*a*a*a*a*a*ab", almost));
    EXPECT_FALSE(prose::glob_match("*a*a*a*a*a*a*a*a*bb", almost));
    EXPECT_TRUE(prose::glob_match("a*a*a*a*", std::string(5000, 'a')));
}

TEST_P(FuzzSweep, TemplateDecodeNeverCrashes) {
    Rng rng(GetParam());
    for (int i = 0; i < 300; ++i) {
        Bytes garbage = random_bytes(rng, 48);
        try {
            rt::Value v = rt::Value::decode(std::span<const std::uint8_t>(garbage));
            tspace::Template::from_value(v);
        } catch (const Error&) {
        }
    }
}

TEST_P(FuzzSweep, JournalRestoreIsTotal) {
    // restore() is the recovery entry point: whatever the disk holds —
    // garbage, torn writes, flipped bits — it must return, never throw.
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        auto disk = std::make_shared<db::JournalStorage>();
        disk->snapshot = random_bytes(rng, 96);
        disk->wal = random_bytes(rng, 192);
        db::Journal::Restored restored = db::Journal(disk).restore();
        // Whatever survived must be well-formed enough to re-encode.
        for (const rt::Value& rec : restored.wal) (void)rec.encode();
    }
    // Mutated real journals: valid frames with a single flipped bit.
    for (int i = 0; i < 200; ++i) {
        auto disk = std::make_shared<db::JournalStorage>();
        db::Journal j(disk);
        j.compact(rt::Value{std::int64_t{7}});
        for (std::int64_t n = 0; n < 4; ++n) j.append(rt::Value{n});
        Bytes& target = (rng.next_below(2) == 0 && !disk->snapshot.empty())
                            ? disk->snapshot
                            : disk->wal;
        if (target.empty()) continue;
        target[rng.next_below(target.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
        (void)db::Journal(disk).restore();
    }
}

TEST_P(FuzzSweep, JournalBatchAndChunkRestoreIsTotal) {
    // Multi-record batches and multi-chunk snapshot chains; restore()
    // must stay total over all of it. Damage is reported through the
    // typed Restored fields, never thrown.
    Rng rng(GetParam());

    auto build = [&](bool interleave) {
        auto disk = std::make_shared<db::JournalStorage>();
        {
            db::Journal j(disk, db::JournalConfig{.batch_bytes = 96,
                                                  .snapshot_chunk_bytes = 48});
            j.compact(rt::Value{std::string(200, 's')});
            j.compact(rt::Value{std::string(200, 't')});  // prev chain armed
            for (std::int64_t n = 0; n < 6; ++n) j.append(rt::Value{n});
            j.flush();
        }
        if (interleave) {
            db::Journal legacy(disk);  // batches of one between group commits
            legacy.append(rt::Value{std::int64_t{100}});
            db::Journal batched(disk, db::JournalConfig{.batch_bytes = 96});
            for (std::int64_t n = 0; n < 4; ++n) batched.append(rt::Value{n});
            batched.flush();
        }
        return disk;
    };

    // Torn mid-batch: truncate the WAL at a random point.
    for (int i = 0; i < 100; ++i) {
        auto disk = build(rng.next_below(2) == 0);
        disk->wal.resize(rng.next_below(disk->wal.size() + 1));
        auto restored = db::Journal(disk).restore();
        for (const rt::Value& r : restored.wal) (void)r.encode();
        EXPECT_TRUE(restored.snapshot.has_value());  // snapshot untouched
    }

    // Bit-flipped chunk chains: damage lands somewhere in the manifest or
    // a chunk frame; restore falls back to the previous chain or reports
    // snapshot_corrupt — and still replays the clean WAL prefix.
    for (int i = 0; i < 100; ++i) {
        auto disk = build(rng.next_below(2) == 0);
        disk->snapshot[rng.next_below(disk->snapshot.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
        auto restored = db::Journal(disk).restore();
        if (!restored.snapshot.has_value()) {
            EXPECT_TRUE(restored.snapshot_corrupt);
        }
        for (const rt::Value& r : restored.wal) (void)r.encode();
    }

    // Truncated manifests: cut the snapshot region short.
    for (int i = 0; i < 100; ++i) {
        auto disk = build(false);
        disk->snapshot.resize(rng.next_below(disk->snapshot.size() + 1));
        (void)db::Journal(disk).restore();
    }

    // Random flips across both regions and the fallback chain at once.
    for (int i = 0; i < 100; ++i) {
        auto disk = build(true);
        for (int f = 0; f < 4; ++f) {
            Bytes* target = nullptr;
            switch (rng.next_below(3)) {
                case 0: target = &disk->snapshot; break;
                case 1: target = &disk->snapshot_prev; break;
                default: target = &disk->wal; break;
            }
            if (target->empty()) continue;
            (*target)[rng.next_below(target->size())] ^=
                static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        auto restored = db::Journal(disk).restore();
        for (const rt::Value& r : restored.wal) (void)r.encode();
    }
}

TEST_P(FuzzSweep, EventStoreRestoreThrowsOnlyTypedErrors) {
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        Bytes garbage = random_bytes(rng, 96);
        try {
            db::EventStore::restore(std::span<const std::uint8_t>(garbage));
        } catch (const Error&) {  // ParseError or TypeError, both fine
        }
    }
    // Mutated real snapshots: structurally valid encodings with damage.
    db::EventStore store;
    for (std::int64_t n = 1; n <= 5; ++n) {
        store.append("robot", SimTime{n * 1000}, rt::Value{n});
    }
    Bytes good = store.snapshot();
    for (int i = 0; i < 300; ++i) {
        Bytes bad = good;
        bad[rng.next_below(bad.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
        try {
            db::EventStore::restore(std::span<const std::uint8_t>(bad));
        } catch (const Error&) {
        }
    }
}

TEST_P(FuzzSweep, ReceiverInstallVerifyPathIsTotal) {
    // The receiver's install path is the platform's widest attack surface:
    // it takes whole signed packages off the radio. Garbage, oversized
    // blobs, bit-flipped real packages and forged issuers must all come
    // back as typed Errors with the rejection counters moving — and the
    // node must still install a pristine package afterwards.
    Rng rng(GetParam());
    sim::Simulator sim;
    net::Network net(sim, net::NetworkConfig{}, GetParam());
    midas::MobileNode robot(net, "fuzzbot", {0, 0}, 50.0);
    robot.trust().trust("hall", to_bytes("k"));
    crypto::KeyStore keys;
    keys.add_key("hall", to_bytes("k"));

    const std::uint64_t rejections0 = robot.receiver().stats().rejections;
    for (int i = 0; i < 150; ++i) {
        Bytes garbage = random_bytes(rng, 512);
        try {
            robot.receiver().install_from(robot.id(), garbage, 1000);
        } catch (const Error&) {
        }
    }
    // Oversized: far past any real package, partially structured.
    Bytes huge(256 * 1024, 0xA5);
    for (int i = 0; i < 64; ++i) {
        huge[rng.next_below(huge.size())] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    try {
        robot.receiver().install_from(robot.id(), huge, 1000);
    } catch (const Error&) {
    }

    midas::ExtensionPackage pkg;
    pkg.name = "hall/fz";
    pkg.script = "fun onEntry() { }";
    pkg.bindings = {{prose::AdviceKind::kBefore, "call(* Motor.*(..))", "onEntry", 0}};
    Bytes sealed = pkg.seal(keys, "hall");

    // Bit-flipped real packages: either the MAC rejects them (Error) or
    // the flips were non-semantic and the original installs — never a
    // crash, never foreign exceptions.
    for (int i = 0; i < 100; ++i) {
        Bytes mutated = sealed;
        for (std::uint64_t flips = 1 + rng.next_below(4); flips > 0; --flips) {
            mutated[rng.next_below(mutated.size())] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        try {
            robot.receiver().install_from(robot.id(), mutated, 1000);
        } catch (const Error&) {
        }
    }

    // A correctly sealed package from an issuer this node never trusted.
    crypto::KeyStore rogue;
    rogue.add_key("evil", to_bytes("zz"));
    EXPECT_THROW(robot.receiver().install_from(robot.id(), pkg.seal(rogue, "evil"), 1000),
                 Error);

    EXPECT_GT(robot.receiver().stats().rejections, rejections0);

    // The node is unharmed: a pristine install still succeeds.
    robot.receiver().withdraw_all();
    robot.receiver().install_from(robot.id(), sealed, 1000);
    EXPECT_EQ(robot.receiver().installed_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace pmp
