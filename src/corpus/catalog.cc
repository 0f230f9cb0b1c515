#include "corpus/catalog.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "telemetry/json.hh"

namespace act::corpus
{

namespace
{

using telemetry::jsonEscape;
using telemetry::JsonValue;

/**
 * Seeds are full 64-bit hashes; a JSON number (double) only holds 53
 * exact bits, so the seed travels as a decimal string. PCs and the
 * small parameters fit a double exactly and stay plain numbers.
 */
bool
getU64String(const JsonValue &obj, const char *key, std::uint64_t &out,
             std::string *error)
{
    const JsonValue *value = obj.find(key);
    if (value == nullptr || !value->isString()) {
        if (error != nullptr)
            *error = std::string("missing or non-string field '") + key +
                     "'";
        return false;
    }
    if (value->text.empty()) {
        if (error != nullptr)
            *error = std::string("empty numeric string field '") + key +
                     "'";
        return false;
    }
    for (const char c : value->text) {
        if (c < '0' || c > '9') {
            if (error != nullptr)
                *error = std::string("non-decimal character in '") + key +
                         "'";
            return false;
        }
    }
    char *end = nullptr;
    out = std::strtoull(value->text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' ||
        std::to_string(out) != value->text) {
        if (error != nullptr)
            *error = std::string("out-of-range value in '") + key + "'";
        return false;
    }
    return true;
}

bool
getNumber(const JsonValue &obj, const char *key, std::uint64_t &out,
          std::string *error)
{
    const JsonValue *value = obj.find(key);
    if (value == nullptr || !value->isNumber()) {
        if (error != nullptr)
            *error = std::string("missing or non-number field '") + key +
                     "'";
        return false;
    }
    const std::optional<std::uint64_t> number = value->asU64();
    if (!number) {
        if (error != nullptr)
            *error = std::string("out-of-range value in '") + key + "'";
        return false;
    }
    out = *number;
    return true;
}

bool
getString(const JsonValue &obj, const char *key, std::string &out,
          std::string *error)
{
    const JsonValue *value = obj.find(key);
    if (value == nullptr || !value->isString()) {
        if (error != nullptr)
            *error = std::string("missing or non-string field '") + key +
                     "'";
        return false;
    }
    out = value->text;
    return true;
}

const JsonValue *
getObject(const JsonValue &obj, const char *key, std::string *error)
{
    const JsonValue *value = obj.find(key);
    if (value == nullptr || !value->isObject()) {
        if (error != nullptr)
            *error = std::string("missing or non-object field '") + key +
                     "'";
        return nullptr;
    }
    return value;
}

} // namespace

std::string
catalogJson(const CorpusCatalog &catalog)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"" << kCatalogSchema << "\",\n";
    out << "  \"name\": \"" << jsonEscape(catalog.name) << "\",\n";
    out << "  \"base_kernel\": \"" << jsonEscape(catalog.base_kernel)
        << "\",\n";
    out << "  \"bug_class\": \"" << jsonEscape(catalog.bug_class)
        << "\",\n";
    out << "  \"lens\": \"" << jsonEscape(catalog.lens) << "\",\n";
    out << "  \"seed\": \"" << catalog.seed << "\",\n";
    out << "  \"site\": {\"store_pc\": " << catalog.site_store_pc
        << ", \"load_pc\": " << catalog.site_load_pc << "},\n";
    out << "  \"root\": {\"store_pc\": " << catalog.root_store_pc
        << ", \"load_pc\": " << catalog.root_load_pc << "},\n";
    out << "  \"params\": {\"threads\": " << catalog.threads
        << ", \"phases\": " << catalog.phases
        << ", \"trigger_phase\": " << catalog.trigger_phase
        << ", \"victim\": " << catalog.victim << "}\n";
    out << "}\n";
    return out.str();
}

bool
parseCatalogJson(const std::string &json, CorpusCatalog &out,
                 std::string *error)
{
    const auto root = telemetry::parseJson(json, error);
    if (root == nullptr)
        return false;
    if (!root->isObject()) {
        if (error != nullptr)
            *error = "catalog root is not an object";
        return false;
    }

    CorpusCatalog catalog;
    std::string schema;
    if (!getString(*root, "schema", schema, error))
        return false;
    if (schema != kCatalogSchema) {
        if (error != nullptr)
            *error = "unknown catalog schema '" + schema + "'";
        return false;
    }
    if (!getString(*root, "name", catalog.name, error) ||
        !getString(*root, "base_kernel", catalog.base_kernel, error) ||
        !getString(*root, "bug_class", catalog.bug_class, error) ||
        !getString(*root, "lens", catalog.lens, error) ||
        !getU64String(*root, "seed", catalog.seed, error))
        return false;

    const JsonValue *site = getObject(*root, "site", error);
    if (site == nullptr ||
        !getNumber(*site, "store_pc", catalog.site_store_pc, error) ||
        !getNumber(*site, "load_pc", catalog.site_load_pc, error))
        return false;
    const JsonValue *root_pair = getObject(*root, "root", error);
    if (root_pair == nullptr ||
        !getNumber(*root_pair, "store_pc", catalog.root_store_pc,
                   error) ||
        !getNumber(*root_pair, "load_pc", catalog.root_load_pc, error))
        return false;

    const JsonValue *params = getObject(*root, "params", error);
    std::uint64_t threads = 0;
    std::uint64_t phases = 0;
    std::uint64_t trigger = 0;
    std::uint64_t victim = 0;
    if (params == nullptr ||
        !getNumber(*params, "threads", threads, error) ||
        !getNumber(*params, "phases", phases, error) ||
        !getNumber(*params, "trigger_phase", trigger, error) ||
        !getNumber(*params, "victim", victim, error))
        return false;
    if (std::max({threads, phases, trigger, victim}) > UINT32_MAX) {
        if (error != nullptr)
            *error = "out-of-range value in 'params'";
        return false;
    }
    catalog.threads = static_cast<std::uint32_t>(threads);
    catalog.phases = static_cast<std::uint32_t>(phases);
    catalog.trigger_phase = static_cast<std::uint32_t>(trigger);
    catalog.victim = static_cast<std::uint32_t>(victim);

    out = std::move(catalog);
    return true;
}

std::vector<Finding>
validateCatalog(const std::string &json)
{
    std::vector<Finding> findings;
    const auto reject = [&findings](const std::string &code,
                                    const std::string &message) {
        findings.push_back(
            makeFinding("catalog", code, Severity::kError, message));
    };

    CorpusCatalog catalog;
    std::string error;
    if (!parseCatalogJson(json, catalog, &error)) {
        reject("bad-json", error);
        return findings;
    }

    CorpusBugClass bug_class = CorpusBugClass::kReorderedSync;
    if (!parseCorpusBugClass(catalog.bug_class, bug_class)) {
        reject("unknown-class",
               "unknown bug class '" + catalog.bug_class + "'");
    } else if (catalog.lens != corpusLensName(bug_class)) {
        reject("lens-mismatch",
               "class '" + catalog.bug_class + "' pairs with lens '" +
                   corpusLensName(bug_class) + "', catalog claims '" +
                   catalog.lens + "'");
    }

    const auto pcOk = [](Pc pc) { return pc != 0 && pc != kInvalidPc; };
    if (!pcOk(catalog.site_store_pc) || !pcOk(catalog.site_load_pc) ||
        catalog.site_store_pc == catalog.site_load_pc)
        reject("bad-pc", "site PC pair is invalid or degenerate");
    if (!pcOk(catalog.root_store_pc) || !pcOk(catalog.root_load_pc) ||
        catalog.root_store_pc == catalog.root_load_pc)
        reject("bad-pc", "root PC pair is invalid or degenerate");

    if (catalog.threads < 2)
        reject("bad-params", "threads must be >= 2");
    if (catalog.phases < 2)
        reject("bad-params", "phases must be >= 2");
    if (catalog.trigger_phase + 1 >= catalog.phases)
        reject("bad-params",
               "trigger_phase must leave a successor phase");
    if (catalog.victim < 1 || catalog.victim >= catalog.threads)
        reject("bad-params", "victim must be a worker thread id");

    CorpusVariantDesc desc;
    if (!parseCorpusName(catalog.name, desc)) {
        reject("name-mismatch",
               "catalog name '" + catalog.name +
                   "' is not a corpus variant name");
    } else if (desc.base != catalog.base_kernel ||
               corpusBugClassName(desc.bug_class) != catalog.bug_class ||
               desc.seed != catalog.seed) {
        reject("name-mismatch",
               "catalog name '" + catalog.name +
                   "' disagrees with the body fields");
    }

    return findings;
}

} // namespace act::corpus
