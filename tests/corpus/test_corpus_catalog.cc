/**
 * @file
 * Catalog round-trip and validation: the JSON a variant exports must
 * parse back to the exact catalog (64-bit seeds included), pass the
 * validator, and every way a catalog can be malformed or internally
 * inconsistent must be rejected with the right finding code. Variant
 * traces themselves must be clean under the trace linter — the corpus
 * rides the same trace toolchain as everything else.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/trace_lint.hh"
#include "corpus/catalog.hh"
#include "corpus/corpus.hh"
#include "telemetry/json.hh"

namespace act::corpus
{
namespace
{

CorpusCatalog
sampleCatalog()
{
    const auto workload =
        makeCorpusWorkload("corpus/canneal/split-critical-section/11");
    EXPECT_NE(nullptr, workload);
    return workload->catalog();
}

bool
hasCode(const std::vector<Finding> &findings, const std::string &code)
{
    for (const Finding &finding : findings) {
        if (finding.code == code)
            return true;
    }
    return false;
}

TEST(CatalogJson, RoundTripsExactly)
{
    const CorpusCatalog catalog = sampleCatalog();
    const std::string json = catalogJson(catalog);
    CorpusCatalog parsed;
    std::string error;
    ASSERT_TRUE(parseCatalogJson(json, parsed, &error)) << error;
    EXPECT_EQ(catalog, parsed);
    // Serialisation is canonical: re-emitting the parse is a no-op.
    EXPECT_EQ(json, catalogJson(parsed));
}

TEST(CatalogJson, EscapedStringFieldsRoundTrip)
{
    // Catalogs are untrusted input: a parsed name may hold a quote, a
    // backslash or a control character, and writing it back must
    // still produce a catalog that parses to the same fields.
    const std::string json = catalogJson(sampleCatalog());
    const std::string key = "\"name\": \"";
    const std::size_t at = json.find(key);
    ASSERT_NE(std::string::npos, at);
    const std::string hostile =
        json.substr(0, at + key.size()) + "q\\\"uote\\\\tab\\t" +
        json.substr(at + key.size());
    CorpusCatalog parsed;
    std::string error;
    ASSERT_TRUE(parseCatalogJson(hostile, parsed, &error)) << error;
    EXPECT_EQ(0u, parsed.name.find("q\"uote\\tab\t"));
    CorpusCatalog again;
    ASSERT_TRUE(parseCatalogJson(catalogJson(parsed), again, &error))
        << error;
    EXPECT_EQ(parsed, again);
}

TEST(CatalogJson, PreservesFull64BitSeeds)
{
    // JSON numbers are doubles; seeds above 2^53 only survive the trip
    // because the writer emits them as decimal strings.
    CorpusCatalog catalog = sampleCatalog();
    catalog.seed = 0xfedcba9876543210ull;
    CorpusCatalog parsed;
    ASSERT_TRUE(parseCatalogJson(catalogJson(catalog), parsed, nullptr));
    EXPECT_EQ(0xfedcba9876543210ull, parsed.seed);
}

TEST(CatalogJson, ParsesViaTelemetryJson)
{
    const std::string json = catalogJson(sampleCatalog());
    std::string error;
    const auto tree = telemetry::parseJson(json, &error);
    ASSERT_NE(nullptr, tree) << error;
    ASSERT_TRUE(tree->isObject());
    const auto *schema = tree->find("schema");
    ASSERT_NE(nullptr, schema);
    EXPECT_EQ(kCatalogSchema, schema->text);
}

TEST(CatalogJson, ParseRejectsGarbage)
{
    CorpusCatalog out;
    std::string error;
    EXPECT_FALSE(parseCatalogJson("not json", out, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseCatalogJson("{}", out, &error));
    EXPECT_FALSE(parseCatalogJson("[1,2,3]", out, nullptr));
}

TEST(ValidateCatalog, AcceptsEveryGeneratedVariant)
{
    for (const CorpusVariantDesc &desc : corpusSlice(kCorpusMasterSeed, 12)) {
        const auto workload = makeCorpusWorkload(corpusName(desc));
        ASSERT_NE(nullptr, workload);
        const auto findings = validateCatalog(catalogJson(workload->catalog()));
        EXPECT_TRUE(findings.empty())
            << corpusName(desc) << ": " << formatFindings(findings);
    }
}

TEST(ValidateCatalog, RejectsMalformedJson)
{
    EXPECT_TRUE(hasCode(validateCatalog("{{{"), "bad-json"));
    EXPECT_TRUE(hasCode(validateCatalog("{\"schema\": 3}"), "bad-json"));
}

TEST(ValidateCatalog, RejectsUnknownClassAndWrongLens)
{
    CorpusCatalog catalog = sampleCatalog();
    catalog.bug_class = "no-such-class";
    EXPECT_TRUE(
        hasCode(validateCatalog(catalogJson(catalog)), "unknown-class"));

    catalog = sampleCatalog();
    catalog.lens = "order"; // split-critical-section is atomicity.
    EXPECT_TRUE(
        hasCode(validateCatalog(catalogJson(catalog)), "lens-mismatch"));
}

TEST(ValidateCatalog, RejectsBadPcs)
{
    CorpusCatalog catalog = sampleCatalog();
    catalog.root_store_pc = 0;
    EXPECT_TRUE(hasCode(validateCatalog(catalogJson(catalog)), "bad-pc"));

    catalog = sampleCatalog();
    catalog.site_load_pc = catalog.site_store_pc;
    EXPECT_TRUE(hasCode(validateCatalog(catalogJson(catalog)), "bad-pc"));

    // A PC no uint64_t can hold is a finding, not a cast.
    catalog = sampleCatalog();
    std::string json = catalogJson(catalog);
    const std::string pc = std::to_string(catalog.root_load_pc);
    const std::size_t at = json.find("\"load_pc\": " + pc);
    ASSERT_NE(at, std::string::npos) << json;
    json.replace(json.find(pc, at), pc.size(), "1e30");
    const auto findings = validateCatalog(json);
    ASSERT_TRUE(hasCode(findings, "bad-json")) << formatFindings(findings);
    EXPECT_NE(findings[0].message.find("out-of-range"), std::string::npos)
        << findings[0].message;
}

TEST(ValidateCatalog, RejectsBadParams)
{
    CorpusCatalog catalog = sampleCatalog();
    catalog.threads = 1;
    EXPECT_TRUE(
        hasCode(validateCatalog(catalogJson(catalog)), "bad-params"));

    catalog = sampleCatalog();
    catalog.trigger_phase = catalog.phases; // Needs a phase after it.
    EXPECT_TRUE(
        hasCode(validateCatalog(catalogJson(catalog)), "bad-params"));

    catalog = sampleCatalog();
    catalog.victim = 0; // The master thread cannot be the victim.
    EXPECT_TRUE(
        hasCode(validateCatalog(catalogJson(catalog)), "bad-params"));

    // 2^32 + threads must not narrow back to a valid thread count.
    catalog = sampleCatalog();
    std::string json = catalogJson(catalog);
    const std::string threads =
        "\"threads\": " + std::to_string(catalog.threads);
    const std::size_t at = json.find(threads);
    ASSERT_NE(at, std::string::npos) << json;
    json.replace(at, threads.size(),
                 "\"threads\": " +
                     std::to_string((1ull << 32) + catalog.threads));
    EXPECT_TRUE(hasCode(validateCatalog(json), "bad-json"));
}

TEST(ValidateCatalog, RejectsNameBodyDisagreement)
{
    CorpusCatalog catalog = sampleCatalog();
    catalog.seed += 1; // Name still carries the old seed.
    EXPECT_TRUE(
        hasCode(validateCatalog(catalogJson(catalog)), "name-mismatch"));

    catalog = sampleCatalog();
    catalog.name = "not-a-corpus-name";
    EXPECT_TRUE(
        hasCode(validateCatalog(catalogJson(catalog)), "name-mismatch"));
}

TEST(CorpusTraces, PassTheTraceLinter)
{
    // Correct and failing executions of a variant from each class must
    // be well-formed traces: lock balance, create-before-run, seq
    // monotonicity — the full lint rule set, zero errors.
    for (std::size_t c = 0; c < kCorpusBugClassCount; ++c) {
        CorpusVariantDesc desc;
        desc.base = "ocean";
        desc.bug_class = static_cast<CorpusBugClass>(c);
        desc.seed = 5;
        const auto workload = makeCorpusWorkload(corpusName(desc));
        ASSERT_NE(nullptr, workload);
        for (const bool fail : {false, true}) {
            WorkloadParams params;
            params.seed = fail ? 999 : 100;
            params.trigger_failure = fail;
            const Trace trace = workload->record(params);
            const auto findings = lintTrace(trace);
            EXPECT_EQ(0u, errorCount(findings))
                << corpusName(desc) << (fail ? " failing: " : " correct: ")
                << formatFindings(findings);
        }
    }
}

} // namespace
} // namespace act::corpus
