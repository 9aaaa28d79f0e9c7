/**
 * @file
 * Unit tests for the command-line option parser.
 */

#include <gtest/gtest.h>

#include "config/options.hh"

namespace {

using mediaworm::config::OptionParser;
using mediaworm::config::parseFiniteDouble;

struct Parsed
{
    bool ok;
    std::string error;
};

Parsed
parse(OptionParser& parser, std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    std::string error;
    const bool ok = parser.parse(static_cast<int>(argv.size()),
                                 argv.data(), &error);
    return {ok, error};
}

TEST(Options, ParsesEqualsAndSpaceForms)
{
    double load = 0.0;
    int vcs = 0;
    OptionParser parser("test");
    parser.addDouble("load", "", &load, 0.0, 1.5);
    parser.addInt("vcs", "", &vcs, 1, 256);

    const Parsed result =
        parse(parser, {"--load=0.9", "--vcs", "16"});
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_DOUBLE_EQ(load, 0.9);
    EXPECT_EQ(vcs, 16);
}

TEST(Options, FlagsDefaultFalseSetTrue)
{
    bool csv = false;
    OptionParser parser("test");
    parser.addFlag("csv", "", &csv);
    ASSERT_TRUE(parse(parser, {"--csv"}).ok);
    EXPECT_TRUE(csv);

    csv = true;
    ASSERT_TRUE(parse(parser, {"--csv=false"}).ok);
    EXPECT_FALSE(csv);
}

TEST(Options, RejectsUnknownOption)
{
    OptionParser parser("test");
    const Parsed result = parse(parser, {"--bogus=1"});
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("unknown option --bogus"),
              std::string::npos);
}

TEST(Options, RejectsMissingValue)
{
    int vcs = 0;
    OptionParser parser("test");
    parser.addInt("vcs", "", &vcs, 1, 256);
    const Parsed result = parse(parser, {"--vcs"});
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("needs a value"), std::string::npos);
}

TEST(Options, RejectsOutOfRangeInt)
{
    int vcs = 0;
    OptionParser parser("test");
    parser.addInt("vcs", "", &vcs, 1, 256);
    const Parsed result = parse(parser, {"--vcs=999"});
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("outside"), std::string::npos);
}

TEST(Options, RejectsOutOfRangeDouble)
{
    double load = 0.0;
    OptionParser parser("test");
    parser.addDouble("load", "", &load, 0.0, 1.5);
    EXPECT_FALSE(parse(parser, {"--load=2.0"}).ok);
}

TEST(Options, RejectsMalformedNumbers)
{
    int vcs = 0;
    double load = 0.0;
    OptionParser parser("test");
    parser.addInt("vcs", "", &vcs, 1, 256);
    parser.addDouble("load", "", &load, 0.0, 1.5);
    EXPECT_FALSE(parse(parser, {"--vcs=ten"}).ok);
    EXPECT_FALSE(parse(parser, {"--vcs=16x"}).ok);
    EXPECT_FALSE(parse(parser, {"--load=0.8f"}).ok);
}

TEST(Options, RejectsNonFiniteDoubles)
{
    double load = 0.5;
    OptionParser parser("test");
    parser.addDouble("load", "", &load, 0.0, 1.5);
    for (const char* arg : {"--load=nan", "--load=-nan", "--load=NAN",
                            "--load=inf", "--load=-inf",
                            "--load=infinity"}) {
        const Parsed result = parse(parser, {arg});
        EXPECT_FALSE(result.ok) << arg;
        EXPECT_NE(result.error.find("--load: expected a finite number"),
                  std::string::npos)
            << arg << ": " << result.error;
    }
    EXPECT_EQ(load, 0.5);

    double value = 0.0;
    EXPECT_FALSE(parseFiniteDouble("nan", &value));
    EXPECT_FALSE(parseFiniteDouble("1e999", &value));
    EXPECT_TRUE(parseFiniteDouble("0.25", &value));
    EXPECT_EQ(value, 0.25);
}

TEST(Options, ChoiceStoresIndex)
{
    int scheduler = -1;
    OptionParser parser("test");
    parser.addChoice("scheduler", "", {"fifo", "virtual-clock"},
                     &scheduler);
    ASSERT_TRUE(parse(parser, {"--scheduler=virtual-clock"}).ok);
    EXPECT_EQ(scheduler, 1);

    const Parsed bad = parse(parser, {"--scheduler=lifo"});
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("unknown choice"), std::string::npos);
}

TEST(Options, StringOptionTakesAnything)
{
    std::string out;
    OptionParser parser("test");
    parser.addString("output", "", &out);
    ASSERT_TRUE(parse(parser, {"--output", "results.csv"}).ok);
    EXPECT_EQ(out, "results.csv");
}

TEST(Options, RejectsPositionalArguments)
{
    OptionParser parser("test");
    bool flag = false;
    int vcs = 4;
    parser.addFlag("x", "", &flag);
    parser.addInt("vcs", "", &vcs, 1, 64);
    const Parsed stray = parse(parser, {"--x", "beta"});
    EXPECT_FALSE(stray.ok);
    EXPECT_NE(stray.error.find("beta"), std::string::npos) << stray.error;
    // A value that follows its option is consumed, not stray.
    EXPECT_TRUE(parse(parser, {"--vcs", "8"}).ok);
    EXPECT_EQ(vcs, 8);
    EXPECT_FALSE(parse(parser, {"--vcs", "8", "9"}).ok);
}

TEST(Options, HelpShortCircuits)
{
    int vcs = 7;
    OptionParser parser("test");
    parser.addInt("vcs", "", &vcs, 1, 256);
    const Parsed result = parse(parser, {"--help", "--vcs=999"});
    EXPECT_TRUE(result.ok);
    EXPECT_TRUE(parser.helpRequested());
    EXPECT_EQ(vcs, 7) << "parsing continued past --help";
}

TEST(Options, HelpTextListsOptions)
{
    int vcs = 0;
    OptionParser parser("mediaworm_sim", "a simulator");
    parser.addInt("vcs", "virtual channels", &vcs, 1, 256);
    const std::string text = parser.help();
    EXPECT_NE(text.find("usage: mediaworm_sim"), std::string::npos);
    EXPECT_NE(text.find("--vcs <int 1..256>"), std::string::npos);
    EXPECT_NE(text.find("virtual channels"), std::string::npos);
    EXPECT_NE(text.find("--help"), std::string::npos);
}

TEST(Options, LastValueWins)
{
    double load = 0.0;
    OptionParser parser("test");
    parser.addDouble("load", "", &load, 0.0, 1.5);
    ASSERT_TRUE(parse(parser, {"--load=0.3", "--load=0.7"}).ok);
    EXPECT_DOUBLE_EQ(load, 0.7);
}

} // namespace
