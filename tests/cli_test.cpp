// Unit tests for the shared CLI layer (tools/cli.hpp): the option table
// every tool reads its command line through, and the strict numeric
// validation — "--jobs=abc" must be a fatal usage error, not a silent 0
// ("one worker per hardware thread").
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli.hpp"

namespace tgsim {
namespace {

/// Parses `argv` (without the program name) against `set`.
cli::OptionSet parsed(cli::OptionSet set, std::vector<std::string> argv) {
    argv.insert(argv.begin(), "prog");
    std::vector<char*> raw;
    for (std::string& a : argv) raw.push_back(a.data());
    set.parse(static_cast<int>(raw.size()), raw.data());
    return set;
}

/// The options the sweep-style helpers below read, declared the way the
/// tools declare them.
cli::OptionSet sweep_set() {
    cli::OptionSet set{"tool", "does things"};
    cli::add_tier_options(set)
        .text("shard", "k/N", "", "shard")
        .text("topology", "KIND,...", "mesh", "topologies");
    cli::add_source_options(set);
    return set;
}

TEST(CliParseU64, AcceptsDecimalHexOctal) {
    EXPECT_EQ(cli::parse_u64("0"), 0u);
    EXPECT_EQ(cli::parse_u64("42"), 42u);
    EXPECT_EQ(cli::parse_u64("0x30000000"), 0x30000000u);
    EXPECT_EQ(cli::parse_u64("010"), 8u); // strtoull octal, base 0
    EXPECT_EQ(cli::parse_u64("18446744073709551615"), ~u64{0});
}

TEST(CliParseU64, RejectsGarbage) {
    EXPECT_FALSE(cli::parse_u64(""));
    EXPECT_FALSE(cli::parse_u64("abc"));
    EXPECT_FALSE(cli::parse_u64("12abc"));   // trailing junk
    EXPECT_FALSE(cli::parse_u64("0xZZ"));    // bad hex digits
    EXPECT_FALSE(cli::parse_u64(" 5"));      // leading whitespace
    EXPECT_FALSE(cli::parse_u64("-1"));      // strtoull would wrap this
    EXPECT_FALSE(cli::parse_u64("+5"));
    EXPECT_FALSE(cli::parse_u64("1e6"));
    EXPECT_FALSE(cli::parse_u64("18446744073709551616")); // overflow
}

cli::OptionSet tiny_set() {
    cli::OptionSet set{"tool", "does things"};
    set.number("jobs", "N", "1", "workers")
        .choice<tg::SourceMode>("source", "closed", "loop mode",
                                {{"closed", tg::SourceMode::Closed},
                                 {"open", tg::SourceMode::Open}})
        .text("json", "PATH", "", "report")
        .flag("flag", "a switch")
        .positional("FILE", 0, 2);
    return set;
}

TEST(CliArgs, FlagsAndPositionals) {
    const auto o = parsed(tiny_set(), {"--jobs=4", "--json=out.json",
                                       "--flag", "prog.tgp", "other.tgp"});
    EXPECT_TRUE(o.has("flag"));
    EXPECT_FALSE(o.has("source"));
    EXPECT_EQ(o.get("json"), "out.json");
    EXPECT_EQ(o.get_u64("jobs"), 4u);
    ASSERT_EQ(o.positionals().size(), 2u);
    EXPECT_EQ(o.positionals()[0], "prog.tgp");
}

TEST(CliArgs, DefaultsComeFromTheDeclaration) {
    const auto o = parsed(tiny_set(), {});
    EXPECT_EQ(o.get_u64("jobs"), 1u);
    EXPECT_EQ(o.get_choice<tg::SourceMode>("source"), tg::SourceMode::Closed);
    EXPECT_EQ(o.get("json"), "");
    EXPECT_FALSE(o.has("jobs"));
    EXPECT_TRUE(o.positionals().empty());
}

using CliArgsDeath = testing::Test;

TEST(CliArgsDeath, GarbageNumericFlagExits) {
    EXPECT_EXIT((void)parsed(tiny_set(), {"--jobs=abc"}),
                testing::ExitedWithCode(1), "--jobs: invalid number 'abc'");
}

TEST(CliArgsDeath, OutOfU32RangeFlagExits) {
    // 2^32 + 4 is a valid u64, but a u32 consumer must not truncate it to 4.
    const auto o = parsed(tiny_set(), {"--jobs=4294967300"});
    EXPECT_EQ(o.get_u64("jobs"), 4294967300ull);
    EXPECT_EXIT((void)o.get_u32("jobs"), testing::ExitedWithCode(1),
                "--jobs: value '4294967300' out of 32-bit range");
}

TEST(CliArgsDeath, ValuelessNumericFlagExits) {
    // "--jobs" with no value used to strtoull("") -> 0 silently.
    EXPECT_EXIT((void)parsed(tiny_set(), {"--jobs"}),
                testing::ExitedWithCode(1), "--jobs: invalid number ''");
}

TEST(CliArgsDeath, RepeatedFlagIsFatal) {
    // A map keeps only one copy; a second --poll used to drop the first.
    EXPECT_EXIT((void)parsed(tiny_set(), {"--jobs=2", "--jobs=4"}),
                testing::ExitedWithCode(1),
                "tool: option --jobs repeated \\(try --help\\)");
    EXPECT_EXIT((void)parsed(tiny_set(), {"--flag", "--flag"}),
                testing::ExitedWithCode(1), "option --flag repeated");
}

TEST(CliArgsDeath, PositionalCountIsChecked) {
    EXPECT_EXIT((void)parsed(tiny_set(), {"a", "b", "c"}),
                testing::ExitedWithCode(1),
                "tool: takes 0 to 2 FILE argument\\(s\\)");
    cli::OptionSet none{"tool", "takes no files"};
    EXPECT_EXIT((void)parsed(none, {"stray"}), testing::ExitedWithCode(1),
                "tool: takes no positional arguments");
}

TEST(CliPolls, ParsesValidSpec) {
    const auto polls = cli::parse_polls("0x30000000:256:eq:0:1");
    ASSERT_EQ(polls.size(), 1u);
    EXPECT_EQ(polls[0].base, 0x30000000u);
    EXPECT_EQ(polls[0].size, 256u);
    EXPECT_EQ(polls[0].retry_cmp, tg::TgCmp::Eq);
    EXPECT_EQ(polls[0].retry_value, 0u);
    EXPECT_EQ(polls[0].inter_poll_idle, 1u);
    EXPECT_TRUE(cli::parse_polls("").empty());
}

TEST(CliPolls, CommaListKeepsEverySpec) {
    const auto polls =
        cli::parse_polls("0x30000000:256:eq:0:1,0x30001000:4:geu:7:2");
    ASSERT_EQ(polls.size(), 2u);
    EXPECT_EQ(polls[0].base, 0x30000000u);
    EXPECT_EQ(polls[1].base, 0x30001000u);
    EXPECT_EQ(polls[1].size, 4u);
    EXPECT_EQ(polls[1].retry_cmp, tg::TgCmp::Geu);
    EXPECT_EQ(polls[1].retry_value, 7u);
    EXPECT_EQ(polls[1].inter_poll_idle, 2u);
}

TEST(CliPollsDeath, GarbageNumericFieldExits) {
    EXPECT_EXIT(cli::parse_polls("bogus:256:eq:0:1"),
                testing::ExitedWithCode(1), "--poll base: invalid number");
    EXPECT_EXIT(cli::parse_polls("0x30000000:256:eq:0:soon"),
                testing::ExitedWithCode(1), "--poll idle: invalid number");
    EXPECT_EXIT(cli::parse_polls("0x30000000:256:lt:0:1"),
                testing::ExitedWithCode(1),
                "--poll cmp: unknown value 'lt' \\(valid: eq, ne, ltu, geu\\)");
    EXPECT_EXIT(cli::parse_polls("0x30000000:256:eq:0:1,0x1:2:eq"),
                testing::ExitedWithCode(1), "bad --poll spec '0x1:2:eq'");
}

TEST(CliTier, ParsesAllTiersAndDefault) {
    const auto tier = [](std::vector<std::string> argv) {
        return parsed(sweep_set(), std::move(argv))
            .get_choice<sweep::Tier>("tier");
    };
    EXPECT_EQ(tier({}), sweep::Tier::Cycle);
    EXPECT_EQ(tier({"--tier=cycle"}), sweep::Tier::Cycle);
    EXPECT_EQ(tier({"--tier=analytic"}), sweep::Tier::Analytic);
    EXPECT_EQ(tier({"--tier=funnel"}), sweep::Tier::Funnel);
    EXPECT_EQ(parsed(sweep_set(), {}).get_u32("funnel-top"), 16u);
    EXPECT_EQ(parsed(sweep_set(), {"--funnel-top=3"}).get_u32("funnel-top"),
              3u);
}

TEST(CliShard, ParsesSpecAndDefaultsToUnsharded) {
    const sweep::ShardSpec none = cli::get_shard(parsed(sweep_set(), {}));
    EXPECT_EQ(none.index, 0u);
    EXPECT_EQ(none.count, 1u);
    const sweep::ShardSpec s =
        cli::get_shard(parsed(sweep_set(), {"--shard=2/5"}));
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 5u);
}

TEST(CliShardDeath, BadSpecsAreFatalNotDefaulted) {
    EXPECT_EXIT((void)cli::get_shard(parsed(sweep_set(), {"--shard=3/3"})),
                testing::ExitedWithCode(1), "--shard: bad spec '3/3'");
    EXPECT_EXIT((void)cli::get_shard(parsed(sweep_set(), {"--shard="})),
                testing::ExitedWithCode(1), "--shard: bad spec");
    EXPECT_EXIT((void)cli::get_shard(parsed(sweep_set(), {"--shard=0-3"})),
                testing::ExitedWithCode(1), "--shard: bad spec '0-3'");
}

TEST(CliTierDeath, BadValuesAreFatalNotDefaulted) {
    // Choice diagnostics list every valid token, so a typo is
    // self-correcting from the error message alone.
    EXPECT_EXIT((void)parsed(sweep_set(), {"--tier=fast"}),
                testing::ExitedWithCode(1),
                "--tier: unknown value 'fast' \\(valid: cycle, analytic, "
                "funnel\\)");
    EXPECT_EXIT((void)parsed(sweep_set(), {"--tier="}),
                testing::ExitedWithCode(1), "--tier: unknown value");
    EXPECT_EXIT((void)parsed(sweep_set(), {"--funnel-top=0"}),
                testing::ExitedWithCode(1), "--funnel-top: must be nonzero");
    EXPECT_EXIT((void)parsed(sweep_set(), {"--funnel-top=many"}),
                testing::ExitedWithCode(1), "--funnel-top: invalid number");
}

TEST(CliTopology, ParsesKindsAndDefault) {
    const auto def = cli::get_topologies(parsed(sweep_set(), {}));
    ASSERT_EQ(def.size(), 1u);
    EXPECT_EQ(def[0].kind, ic::TopologyKind::Mesh);
    EXPECT_EQ(def[0].graph, nullptr);
    const auto axis =
        cli::get_topologies(parsed(sweep_set(), {"--topology=mesh,torus"}));
    ASSERT_EQ(axis.size(), 2u);
    EXPECT_EQ(axis[0].kind, ic::TopologyKind::Mesh);
    EXPECT_EQ(axis[1].kind, ic::TopologyKind::Torus);
}

TEST(CliTopologyDeath, BadValuesAreFatalNotDefaulted) {
    const auto topologies = [](const char* flag) {
        return cli::get_topologies(parsed(sweep_set(), {flag}));
    };
    EXPECT_EXIT((void)topologies("--topology=ring"),
                testing::ExitedWithCode(1),
                "--topology: unknown value 'ring' \\(valid: mesh, torus, "
                "file:PATH\\)");
    EXPECT_EXIT((void)topologies("--topology=file:"),
                testing::ExitedWithCode(1), "--topology: empty graph path");
    EXPECT_EXIT((void)topologies("--topology="), testing::ExitedWithCode(1),
                "--topology is empty");
}

TEST(CliOptionSet, AcceptsDeclaredFlagsAndFindsSpecs) {
    const auto o =
        parsed(tiny_set(), {"--jobs=4", "--source=open", "--json=out.json"});
    EXPECT_EQ(o.get_choice<tg::SourceMode>("source"), tg::SourceMode::Open);
    EXPECT_NE(tiny_set().find("source"), nullptr);
    EXPECT_EQ(tiny_set().find("sauce"), nullptr);
}

TEST(CliOptionSetDeath, UnknownFlagIsFatal) {
    // A typo like --jobz must not silently run a default sweep for minutes.
    EXPECT_EXIT((void)parsed(tiny_set(), {"--jobz=4"}),
                testing::ExitedWithCode(1),
                "tool: unknown option --jobz \\(try --help\\)");
}

TEST(CliOptionSetDeath, InvalidValuesAreCheckedBeforeAnyWork) {
    EXPECT_EXIT((void)parsed(tiny_set(), {"--jobs=four"}),
                testing::ExitedWithCode(1), "--jobs: invalid number 'four'");
    EXPECT_EXIT((void)parsed(tiny_set(), {"--source=ajar"}),
                testing::ExitedWithCode(1),
                "--source: unknown value 'ajar' \\(valid: closed, open\\)");
}

TEST(CliOptionSetDeath, HelpPrintsAndExitsZero) {
    // --help wins over anything else on the line, even an unknown flag.
    EXPECT_EXIT((void)parsed(tiny_set(), {"--jobz", "--help"}),
                testing::ExitedWithCode(0), "");
}

TEST(CliWorkload, SizeDefaultsToTheAppsOwn) {
    cli::OptionSet set{"tool", "runs a benchmark"};
    cli::add_workload_options(set, "des", "3");
    const auto des = cli::get_workload(parsed(set, {}), 3);
    EXPECT_EQ(des.cores.size(), 3u);
    EXPECT_EQ(des.checks.size(), apps::make_des({3, 16}).checks.size());
    EXPECT_NE(des.checks.size(), apps::make_des({3, 24}).checks.size());
    // An explicit --size overrides the per-app default.
    const auto o = parsed(set, {"--app=mp_matrix", "--size=8"});
    EXPECT_EQ(cli::get_workload(o, 2).checks.size(),
              apps::make_mp_matrix({2, 8}).checks.size());
}

TEST(CliSource, DefaultsToClosedAndParsesOpenKnobs) {
    const tg::SourceConfig def = cli::get_source(parsed(sweep_set(), {}));
    EXPECT_EQ(def.mode, tg::SourceMode::Closed);
    EXPECT_FALSE(def.open());
    const tg::SourceConfig open = cli::get_source(
        parsed(sweep_set(), {"--source=open", "--max-outstanding=4",
                             "--pending-limit=32"}));
    EXPECT_TRUE(open.open());
    EXPECT_EQ(open.max_outstanding, 4u);
    EXPECT_EQ(open.pending_limit, 32u);
}

TEST(CliSourceDeath, OpenOnlyKnobsRequireOpenMode) {
    // Silently ignoring --pending-limit on a closed run would misreport
    // what the campaign actually swept.
    EXPECT_EXIT(
        (void)cli::get_source(parsed(sweep_set(), {"--pending-limit=32"})),
        testing::ExitedWithCode(1),
        "--max-outstanding/--pending-limit need --source=open");
    EXPECT_EXIT(
        (void)cli::get_source(parsed(sweep_set(), {"--max-outstanding=2"})),
        testing::ExitedWithCode(1),
        "--max-outstanding/--pending-limit need --source=open");
    EXPECT_EXIT((void)parsed(sweep_set(),
                             {"--source=open", "--pending-limit=0"}),
                testing::ExitedWithCode(1),
                "--pending-limit: must be nonzero");
}

TEST(CliCapacityDeath, TooSmallFabricIsAParseTimeError) {
    // 16 cores need 18 nodes (cores + shared memory + semaphores): a 4x4
    // --mesh paired with a 4x4 --grid used to be accepted here and fail
    // only mid-sweep.
    ic::XpipesConfig mesh;
    mesh.width = 4;
    mesh.height = 4;
    EXPECT_EXIT(cli::check_fabric_capacity(mesh, 16, "--mesh"),
                testing::ExitedWithCode(1),
                "--mesh: 16 node\\(s\\) cannot host the 16-core grid plus 2 "
                "shared slaves \\(need >= 18 nodes\\)");
    mesh.height = 5; // 20 nodes: fits
    cli::check_fabric_capacity(mesh, 16, "--mesh");
    mesh.width = 0; // auto-sized: always fits
    mesh.height = 0;
    cli::check_fabric_capacity(mesh, 16, "--mesh");
}

TEST(CliLoadFile, ErrorsNameTheFile) {
    try {
        (void)cli::load_file("prog.tgp", [](const std::string&) -> int {
            throw std::invalid_argument{"tgp: bad MASTER line"};
        });
        FAIL() << "load_file swallowed the error";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "prog.tgp: tgp: bad MASTER line");
    }
}

} // namespace
} // namespace tgsim
