/**
 * @file
 * The texts a full campaign hands the driver: every corpus shader's
 * preprocessed original plus every variant its exploration emits
 * (708 distinct texts with the paper's eight passes registered).
 * Built once per test binary.
 */
#ifndef GSOPT_TESTS_CAMPAIGN_TEXTS_H
#define GSOPT_TESTS_CAMPAIGN_TEXTS_H

#include <string>
#include <unordered_set>
#include <vector>

#include "corpus/corpus.h"
#include "tuner/explore.h"

namespace gsopt::testutil {

/** One driver input: the text and the shader (and variant) it came
 * from, for failure messages. */
struct CampaignText
{
    std::string where;
    std::string text;
};

/** Every distinct campaign text, in corpus and variant order. */
inline const std::vector<CampaignText> &
campaignTexts()
{
    static const std::vector<CampaignText> texts = [] {
        std::vector<CampaignText> out;
        std::unordered_set<std::string> seen;
        auto add = [&](std::string where, const std::string &text) {
            if (seen.insert(text).second)
                out.push_back({std::move(where), text});
        };
        for (const auto &shader : corpus::corpus()) {
            const tuner::Exploration ex = tuner::exploreShader(shader);
            add(shader.name + "/original", ex.preprocessedOriginal);
            for (size_t v = 0; v < ex.variants.size(); ++v)
                add(shader.name + "/v" + std::to_string(v),
                    ex.variants[v].source);
        }
        return out;
    }();
    return texts;
}

} // namespace gsopt::testutil

#endif // GSOPT_TESTS_CAMPAIGN_TEXTS_H
