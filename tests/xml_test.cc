#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/test_util.h"
#include "util/rng.h"
#include "xml/document.h"
#include "xml/label.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace viewjoin {
namespace {

using testing::MakeDoc;
using xml::Document;
using xml::Label;
using xml::NodeId;

TEST(LabelTest, StructuralPredicates) {
  Label a{1, 10, 1};
  Label b{2, 5, 2};
  Label c{3, 4, 3};
  Label d{6, 7, 2};
  EXPECT_TRUE(IsAncestor(a, b));
  EXPECT_TRUE(IsAncestor(a, c));
  EXPECT_TRUE(IsAncestor(b, c));
  EXPECT_FALSE(IsAncestor(b, d));
  EXPECT_TRUE(IsParent(a, b));
  EXPECT_FALSE(IsParent(a, c));
  EXPECT_TRUE(IsParent(b, c));
  EXPECT_TRUE(IsFollowing(b, d));
  EXPECT_FALSE(IsFollowing(a, d));
}

TEST(DocumentTest, BuildAssignsRegionLabels) {
  Document doc = MakeDoc("a(b(c) d)");
  ASSERT_EQ(doc.NodeCount(), 4u);
  // Node ids are document order; labels nest properly.
  const Label& a = doc.NodeLabel(0);
  const Label& b = doc.NodeLabel(1);
  const Label& c = doc.NodeLabel(2);
  const Label& d = doc.NodeLabel(3);
  EXPECT_EQ(a.level, 1u);
  EXPECT_EQ(b.level, 2u);
  EXPECT_EQ(c.level, 3u);
  EXPECT_EQ(d.level, 2u);
  EXPECT_TRUE(IsAncestor(a, b));
  EXPECT_TRUE(IsAncestor(a, d));
  EXPECT_TRUE(IsParent(b, c));
  EXPECT_TRUE(IsFollowing(c, d));
  EXPECT_LT(b.end, d.start);
}

TEST(DocumentTest, ParentChildSiblingLinks) {
  Document doc = MakeDoc("a(b(c) d)");
  EXPECT_EQ(doc.Root(), 0u);
  EXPECT_EQ(doc.Parent(0), xml::kInvalidNode);
  EXPECT_EQ(doc.Parent(1), 0u);
  EXPECT_EQ(doc.Parent(2), 1u);
  EXPECT_EQ(doc.Parent(3), 0u);
  EXPECT_EQ(doc.FirstChild(0), 1u);
  EXPECT_EQ(doc.NextSibling(1), 3u);
  EXPECT_EQ(doc.NextSibling(3), xml::kInvalidNode);
  EXPECT_EQ(doc.FirstChild(2), xml::kInvalidNode);
}

TEST(DocumentTest, TagInterningAndLists) {
  Document doc = MakeDoc("a(b b(b) c)");
  xml::TagId b = doc.FindTag("b");
  ASSERT_NE(b, xml::kInvalidTag);
  const std::vector<NodeId>& list = doc.NodesOfTag(b);
  ASSERT_EQ(list.size(), 3u);
  // Document order = ascending start labels.
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(doc.NodeLabel(list[i - 1]).start, doc.NodeLabel(list[i]).start);
  }
  EXPECT_EQ(doc.FindTag("zzz"), xml::kInvalidTag);
  EXPECT_TRUE(doc.NodesOfTag(xml::kInvalidTag).empty());
}

TEST(DocumentTest, FindByStart) {
  Document doc = MakeDoc("a(b(c) b)");
  xml::TagId b = doc.FindTag("b");
  for (NodeId n : doc.NodesOfTag(b)) {
    EXPECT_EQ(doc.FindByStart(b, doc.NodeLabel(n).start), n);
  }
  EXPECT_EQ(doc.FindByStart(b, 9999), xml::kInvalidNode);
}

TEST(DocumentTest, StartsOfTagAlignsWithNodesOfTag) {
  Document doc = MakeDoc("a(b(c) b c(b))");
  for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
    const std::vector<NodeId>& nodes = doc.NodesOfTag(t);
    const std::vector<uint32_t>& starts = doc.StartsOfTag(t);
    ASSERT_EQ(starts.size(), nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(starts[i], doc.NodeLabel(nodes[i]).start);
    }
  }
  EXPECT_TRUE(doc.StartsOfTag(xml::kInvalidTag).empty());
}

/// Linear-scan reference for FindByStart: the live node of `tag` whose label
/// starts at `start`, or kInvalidNode.
NodeId ScanForStart(const Document& doc, xml::TagId tag, uint32_t start) {
  for (NodeId n = 0; n < doc.NodeCount(); ++n) {
    if (doc.IsLive(n) && doc.NodeTag(n) == tag &&
        doc.NodeLabel(n).start == start) {
      return n;
    }
  }
  return xml::kInvalidNode;
}

/// Checks the start index of every tag against the node lists, and
/// FindByStart against the linear scan at every node's start, under its own
/// tag and a random one (hits, other tags' starts, tombstoned nodes' starts),
/// plus a random position per node (mostly misses).
void ExpectStartIndexConsistent(const Document& doc, util::Rng* rng) {
  for (xml::TagId t = 0; t < doc.TagCount(); ++t) {
    const std::vector<NodeId>& nodes = doc.NodesOfTag(t);
    const std::vector<uint32_t>& starts = doc.StartsOfTag(t);
    ASSERT_EQ(starts.size(), nodes.size()) << doc.TagName(t);
    for (size_t i = 0; i < nodes.size(); ++i) {
      ASSERT_EQ(starts[i], doc.NodeLabel(nodes[i]).start)
          << doc.TagName(t) << "[" << i << "]";
      if (i > 0) ASSERT_LT(starts[i - 1], starts[i]);
    }
  }
  const uint32_t max_pos = doc.NodeLabel(doc.Root()).end + 2;
  for (NodeId n = 0; n < doc.NodeCount(); ++n) {
    const uint32_t start = doc.NodeLabel(n).start;
    const uint32_t miss = static_cast<uint32_t>(rng->Uniform(max_pos));
    const xml::TagId other = static_cast<xml::TagId>(rng->Uniform(doc.TagCount()));
    for (xml::TagId t : {doc.NodeTag(n), other}) {
      ASSERT_EQ(doc.FindByStart(t, start), ScanForStart(doc, t, start))
          << "tag " << doc.TagName(t) << " start " << start;
      ASSERT_EQ(doc.FindByStart(t, miss), ScanForStart(doc, t, miss))
          << "tag " << doc.TagName(t) << " start " << miss;
    }
  }
}

// A seeded random sequence of live updates: after every InsertSubtree,
// DeleteSubtree and RelabelWithGap, each tag's start index is still aligned
// with its node list and FindByStart agrees with a linear scan.
TEST(DocumentTest, StartIndexStaysAlignedUnderRandomUpdates) {
  const std::vector<std::string> tags = {"a", "b", "c"};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    Document doc = testing::RandomDoc(&rng, 40, tags);
    ASSERT_TRUE(doc.RelabelWithGap(8).ok());
    ExpectStartIndexConsistent(doc, &rng);
    int inserts = 0;
    int deletes = 0;
    int relabels = 0;
    for (int step = 0; step < 120; ++step) {
      std::vector<NodeId> live;
      for (NodeId n = 0; n < doc.NodeCount(); ++n) {
        if (doc.IsLive(n)) live.push_back(n);
      }
      const uint64_t op = rng.Uniform(10);
      if (op < 6) {
        // Insert a small random subtree (sometimes with a fresh tag) after a
        // random child of a random live parent, or as its first child.
        NodeId parent = live[rng.Uniform(live.size())];
        std::vector<NodeId> kids;
        for (NodeId c = doc.FirstChild(parent); c != xml::kInvalidNode;
             c = doc.NextSibling(c)) {
          kids.push_back(c);
        }
        NodeId after = kids.empty() || rng.Bernoulli(0.3)
                           ? xml::kInvalidNode
                           : kids[rng.Uniform(kids.size())];
        xml::SubtreeSpec spec;
        const uint64_t size = 1 + rng.Uniform(4);
        for (uint64_t i = 0; i < size; ++i) {
          std::string tag = rng.Bernoulli(0.1) ? "n" + std::to_string(step)
                                               : tags[rng.Uniform(tags.size())];
          uint32_t p = i == 0 ? xml::SubtreeSpec::kNoParent
                              : static_cast<uint32_t>(rng.Uniform(i));
          spec.nodes.push_back({tag, p});
        }
        util::StatusOr<NodeId> inserted = doc.InsertSubtree(spec, parent, after);
        if (!inserted.ok()) {
          ASSERT_EQ(inserted.status().code(),
                    util::StatusCode::kResourceExhausted);
          if (doc.RelabelWithGap(4).ok()) ++relabels;
        } else {
          ++inserts;
        }
      } else if (op < 9) {
        if (live.size() < 2) continue;
        NodeId victim = live[1 + rng.Uniform(live.size() - 1)];
        ASSERT_TRUE(doc.DeleteSubtree(victim).ok());
        ++deletes;
      } else {
        // Small gaps keep the labels far from 32-bit overflow.
        if (doc.RelabelWithGap(2).ok()) ++relabels;
      }
      ExpectStartIndexConsistent(doc, &rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(inserts, 0);
    EXPECT_GT(deletes, 0);
    EXPECT_GT(relabels, 0);
  }
}

TEST(ParserTest, ParsesNestedElements) {
  auto result = xml::ParseDocument("<a><b><c/></b><d>text</d></a>");
  ASSERT_TRUE(result.ok()) << result.error;
  const Document& doc = *result.document;
  ASSERT_EQ(doc.NodeCount(), 4u);
  EXPECT_EQ(doc.TagName(doc.NodeTag(0)), "a");
  EXPECT_EQ(doc.TagName(doc.NodeTag(2)), "c");
  EXPECT_TRUE(doc.IsAncestor(0, 3));
  EXPECT_FALSE(doc.IsAncestor(1, 3));
}

TEST(ParserTest, SkipsPrologCommentsAndAttributes) {
  auto result = xml::ParseDocument(
      "<?xml version=\"1.0\"?><!-- comment --><a id=\"1\" x='<b>'>"
      "<![CDATA[<fake>]]><b/></a>");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.document->NodeCount(), 2u);
}

TEST(ParserTest, TextAdvancesLabelPositions) {
  auto with_text = xml::ParseDocument("<a>hello<b/>world</a>");
  auto without = xml::ParseDocument("<a><b/></a>");
  ASSERT_TRUE(with_text.ok());
  ASSERT_TRUE(without.ok());
  // Text between tags consumes label positions, so the 'a' region widens.
  EXPECT_GT(with_text.document->NodeLabel(0).end,
            without.document->NodeLabel(0).end);
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(xml::ParseDocument("").ok());
  EXPECT_FALSE(xml::ParseDocument("<a><b></a></b>").ok());
  EXPECT_FALSE(xml::ParseDocument("<a>").ok());
  EXPECT_FALSE(xml::ParseDocument("</a>").ok());
  EXPECT_FALSE(xml::ParseDocument("<a/><b/>").ok());
  EXPECT_FALSE(xml::ParseDocument("<a><!-- unterminated</a>").ok());
  EXPECT_FALSE(xml::ParseDocument("<a attr=\"unterminated></a>").ok());
}

TEST(WriterTest, RoundTripsThroughParser) {
  Document doc = MakeDoc("site(regions(item(name) item) people(person(name)))");
  std::string xml_text = xml::WriteDocument(doc);
  auto reparsed = xml::ParseDocument(xml_text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  ASSERT_EQ(reparsed.document->NodeCount(), doc.NodeCount());
  for (NodeId n = 0; n < doc.NodeCount(); ++n) {
    EXPECT_EQ(doc.TagName(doc.NodeTag(n)),
              reparsed.document->TagName(reparsed.document->NodeTag(n)));
    EXPECT_EQ(doc.NodeLabel(n).level, reparsed.document->NodeLabel(n).level);
  }
}

TEST(WriterTest, SerializedSizeMatchesString) {
  Document doc = MakeDoc("a(b(c) d)");
  EXPECT_EQ(xml::SerializedSize(doc), xml::WriteDocument(doc).size());
  xml::WriterOptions options;
  options.synthetic_text = true;
  EXPECT_EQ(xml::SerializedSize(doc, options),
            xml::WriteDocument(doc, options).size());
}

TEST(WriterTest, IndentedOutputStaysWellFormed) {
  Document doc = MakeDoc("a(b(c) d)");
  xml::WriterOptions options;
  options.indent = 2;
  auto reparsed = xml::ParseDocument(xml::WriteDocument(doc, options));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_EQ(reparsed.document->NodeCount(), doc.NodeCount());
}

}  // namespace
}  // namespace viewjoin
