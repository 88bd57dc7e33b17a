// Parse-corpus golden: seeded mutants of the language's representative
// texts, each with the printed AST it parses to or the exact error it
// fails with. Pins every accepted AST, error message and line/column the
// lexer and parser produce, so a rewrite of either shows up as a diff.
// Regenerate after an intentional change to the language with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/lang_parse_corpus_test

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "common/io.h"
#include "lang/parser.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace hermes::lang {
namespace {

/// Which `Parser::Parse*` entry point reads a seed and its mutants.
enum class Entry { kQuery, kRule, kProgram, kInvariants, kCallPattern };

struct Seed {
  const char* name;
  Entry entry;
  std::string text;
  int mutants;
};

/// Parses `text` with `entry` and prints the result.
Result<std::string> ParseAndPrint(Entry entry, const std::string& text) {
  switch (entry) {
    case Entry::kQuery: {
      HERMES_ASSIGN_OR_RETURN(Query query, Parser::ParseQuery(text));
      return query.ToString();
    }
    case Entry::kRule: {
      HERMES_ASSIGN_OR_RETURN(Rule rule, Parser::ParseRule(text));
      return rule.ToString();
    }
    case Entry::kProgram: {
      HERMES_ASSIGN_OR_RETURN(Program program, Parser::ParseProgram(text));
      return program.ToString();
    }
    case Entry::kInvariants: {
      HERMES_ASSIGN_OR_RETURN(std::vector<Invariant> invariants,
                              Parser::ParseInvariants(text));
      std::string out;
      for (const Invariant& inv : invariants) out += inv.ToString() + "\n";
      return out;
    }
    case Entry::kCallPattern: {
      HERMES_ASSIGN_OR_RETURN(DomainCallSpec spec,
                              Parser::ParseCallPattern(text));
      return spec.ToString();
    }
  }
  return Status::Internal("unknown entry point");
}

std::vector<Seed> Seeds() {
  testbed::TopologyInfo topology;
  for (int i = 0; i < 32; ++i) {
    topology.domains.push_back("s" + std::to_string(i));
  }
  return {
      {"fanout8", Entry::kQuery,
       testbed::TopologyQuery(topology, /*k=*/1234, /*fanout=*/8), 60},
      {"query3", Entry::kQuery, testbed::AppendixQuery(3, false, 10, 300),
       160},
      {"term_kinds", Entry::kQuery,
       "?- in(X, d:f(-7, 2.5e3, -1.5e-2, 'it\\'s\\n', \"q\\\"x\", "
       "[1, -2, 'a', []], sym, true, null)) & X.name.1 >= -3 & "
       "<=(X.size, 2.5) & X <> 'z' & $ans.2 != false & =(Y, []).",
       100},
      {"routetosupplies", Entry::kRule,
       "routetosupplies(From, Sup, To, R) :- "
       "in(T, ingres:select_eq('inventory', item, Sup)) & =(T.loc, To) & "
       "in(R, terraindb:findrte(From, To)).",
       60},
      {"commented_program", Entry::kProgram,
       "% query3 of the appendix, and a fact.\n"
       "query3(First, Last, Object, Actor) :-  // frames, then cast\n"
       "    in(Object, video:frames_to_objects('rope', First, Last)) &\n"
       "    in(T, relation:equal('cast', role, Object)) &\n"
       "    =(Actor, T.name).\n"
       "cast(brandon, 'John Dall').  % a fact\n",
       45},
      {"frame_invariants", Entry::kInvariants,
       "% A wider frame range sees at least the objects of a narrower one.\n"
       "F2 <= F1 & L1 <= L2 =>\n"
       "    video:frames_to_objects(V, F2, L2) >=\n"
       "    video:frames_to_objects(V, F1, L1).\n"
       "L >= 130000 =>\n"
       "    video:frames_to_objects('rope', F, L) =\n"
       "    video:frames_to_objects('rope', F, 129999).\n",
       45},
      {"bound_pattern", Entry::kCallPattern,
       "video:frames_to_objects('rope', $b, 129999).", 160},
  };
}

/// Characters the lexer treats specially, plus the separators.
constexpr char kPunctuation[] = "()[],.:&?-=!<>$%/'\"\\_ \n";

/// Applies one to three random edits to `text`: delete, insert or replace
/// one character (inserted characters come from kPunctuation), or
/// duplicate a span of one to four characters. Every draw is `rng() % n`
/// in its own statement, so the corpus is the same on every standard
/// library and compiler.
std::string Mutate(std::string text, std::mt19937_64& rng) {
  const uint64_t num_edits = 1 + rng() % 3;
  for (uint64_t e = 0; e < num_edits; ++e) {
    const uint64_t op = rng() % 4;
    if (op == 1 || text.empty()) {  // insert
      const size_t pos = rng() % (text.size() + 1);
      const char c = kPunctuation[rng() % (sizeof(kPunctuation) - 1)];
      text.insert(pos, 1, c);
      continue;
    }
    const size_t pos = rng() % text.size();
    if (op == 0) {
      text.erase(pos, 1);
    } else if (op == 2) {
      text[pos] = kPunctuation[rng() % (sizeof(kPunctuation) - 1)];
    } else {
      const size_t len = 1 + rng() % 4;
      const std::string span = text.substr(pos, len);
      text.insert(pos + span.size(), span);
    }
  }
  return text;
}

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

struct CorpusLine {
  const Seed* seed;  ///< Set on the unmutated seed, which leads its group.
  Entry entry;
  std::string input;
  Result<std::string> printed;
};

/// Every seed, unmutated, followed by its mutants, in a fixed order.
std::vector<CorpusLine> Corpus(const std::vector<Seed>& seeds) {
  std::mt19937_64 rng(1996);
  std::vector<CorpusLine> corpus;
  for (const Seed& seed : seeds) {
    corpus.push_back(
        {&seed, seed.entry, seed.text, ParseAndPrint(seed.entry, seed.text)});
    for (int i = 0; i < seed.mutants; ++i) {
      std::string mutant = Mutate(seed.text, rng);
      corpus.push_back(
          {nullptr, seed.entry, mutant, ParseAndPrint(seed.entry, mutant)});
    }
  }
  return corpus;
}

TEST(ParseCorpusGolden, MutantsMatchGolden) {
  const std::vector<Seed> seeds = Seeds();
  std::string actual;
  for (const CorpusLine& line : Corpus(seeds)) {
    if (line.seed != nullptr) {
      actual += "== " + std::string(line.seed->name) + "\n";
    }
    actual += Escape(line.input) + "\t" +
              (line.printed.ok() ? "ok " + Escape(*line.printed)
                                 : line.printed.status().ToString()) +
              "\n";
  }

  const std::string path =
      std::string(HERMES_TEST_SRCDIR) + "/golden/parse_corpus.txt";
  if (std::getenv("HERMES_UPDATE_GOLDENS") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(path, actual).ok());
    GTEST_SKIP() << "golden updated: " << path;
  }
  Result<std::string> expected = ReadFileToString(path);
  ASSERT_TRUE(expected.ok()) << "missing golden " << path
                             << " (run with HERMES_UPDATE_GOLDENS=1)";
  EXPECT_EQ(*expected, actual) << "parse results drifted from " << path
                               << "; regenerate with HERMES_UPDATE_GOLDENS=1 "
                                  "if the change is intentional";
}

TEST(ParseCorpusGolden, AcceptedMutantsRoundTrip) {
  const std::vector<Seed> seeds = Seeds();
  size_t accepted = 0;
  for (const CorpusLine& line : Corpus(seeds)) {
    if (!line.printed.ok()) continue;
    ++accepted;
    Result<std::string> reprinted = ParseAndPrint(line.entry, *line.printed);
    ASSERT_TRUE(reprinted.ok())
        << Escape(line.input) << " printed as " << Escape(*line.printed)
        << ", which fails to reparse: " << reprinted.status();
    EXPECT_EQ(*line.printed, *reprinted) << Escape(line.input);
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace hermes::lang
