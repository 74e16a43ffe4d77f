#include "datagen/movie_gen.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datagen/pools.h"

namespace mweaver::datagen {

namespace {

using storage::AttributeSchema;
using storage::Database;
using storage::Relation;
using storage::RelationId;
using storage::RelationSchema;
using storage::Row;
using storage::Value;
using storage::ValueType;

// Shorthand attribute constructors.
AttributeSchema Id(const std::string& name) {
  return AttributeSchema{name, ValueType::kInt64, /*searchable=*/false};
}
AttributeSchema Str(const std::string& name) {
  return AttributeSchema{name, ValueType::kString, /*searchable=*/true};
}

RelationId AddTable(Database* db, const std::string& name,
                    std::vector<AttributeSchema> attrs,
                    std::vector<storage::AttributeId> key = {0}) {
  RelationSchema schema(name, std::move(attrs));
  schema.SetPrimaryKey(std::move(key));
  auto result = db->AddRelation(std::move(schema));
  MW_CHECK(result.ok()) << result.status().ToString();
  return *result;
}

// A many-to-many link table: its first column repeats (one movie has many
// keywords), so the table is keyed by its (left, right) pair, which the
// link fillers keep unique.
RelationId AddLink(Database* db, const std::string& name,
                   std::vector<AttributeSchema> attrs) {
  return AddTable(db, name, std::move(attrs), {0, 1});
}

void AddFk(Database* db, const std::string& from_rel,
           const std::string& from_attr, const std::string& to_rel,
           const std::string& to_attr) {
  auto result = db->AddForeignKey(from_rel, from_attr, to_rel, to_attr);
  MW_CHECK(result.ok()) << result.status().ToString();
}

Value IdOf(size_t index) { return Value(static_cast<int64_t>(index)); }

// Appends `count` link rows connecting random pairs; avoids exact duplicate
// pairs so link tables behave like real many-to-many relations.
void FillLinks(Relation* rel, Rng* rng, size_t left_count, size_t right_count,
               size_t per_left_min, size_t per_left_max) {
  std::set<std::pair<size_t, size_t>> used;
  for (size_t l = 0; l < left_count; ++l) {
    const size_t n = static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(per_left_min),
                        static_cast<int64_t>(per_left_max)));
    for (size_t k = 0; k < n; ++k) {
      const size_t r = rng->Index(right_count);
      if (!used.insert({l, r}).second) continue;
      rel->AppendUnchecked(Row{IdOf(l), IdOf(r)});
    }
  }
}

}  // namespace

Database MakeYahooMovies(const YahooMoviesConfig& config) {
  Rng rng(config.seed);
  const size_t movies = config.num_movies;
  MW_CHECK_GE(movies, 4u);
  const size_t people =
      config.num_people > 0 ? config.num_people : movies * 3 / 2;
  const size_t companies = config.num_companies > 0
                               ? config.num_companies
                               : std::max<size_t>(12, movies / 5);
  const size_t locations = std::max<size_t>(8, config.num_locations);
  const size_t genres = GenreNames().size();
  const size_t awards = std::max<size_t>(4, movies / 10);
  const size_t families = 40;
  const size_t countries = Countries().size();
  const size_t languages = 15;
  const size_t keywords = 80;
  const size_t critics = 30;
  const size_t cinemas = 25;
  const size_t festivals = 15;
  const size_t studios = 20;
  const size_t songs = movies;
  const size_t series = 20;
  const size_t episodes = series * 6;
  const size_t characters = movies;
  const size_t agents = 25;

  Database db("yahoo_movies");

  // --- Entity relations -------------------------------------------------
  AddTable(&db, "movie",
           {Id("mid"), Str("title"), Str("logline"), Str("release_date"),
            Str("mpaa"), Str("runtime"), Str("produced_in")});
  AddTable(&db, "person",
           {Id("pid"), Str("name"), Str("bio"), Str("birth_year"),
            Str("gender")});
  AddTable(&db, "company",
           {Id("cid"), Str("name"), Str("country"), Str("founded")});
  AddTable(&db, "location", {Id("lid"), Str("loc"), Str("region")});
  AddTable(&db, "genre", {Id("gid"), Str("name"), Str("description")});
  AddTable(&db, "award",
           {Id("aid"), Str("name"), Str("year"), Str("category")});
  AddTable(&db, "family", {Id("fid"), Str("family"), Str("origin")});
  AddTable(&db, "country", {Id("cnid"), Str("name"), Str("code")});
  AddTable(&db, "language", {Id("lgid"), Str("name"), Str("code")});
  AddTable(&db, "keyword", {Id("kid"), Str("word"), Str("category")});
  AddTable(&db, "review",
           {Id("rvid"), Id("mid"), Str("text"), Str("rating"),
            Str("headline")});
  AddTable(&db, "critic", {Id("crid"), Str("name"), Str("outlet")});
  AddTable(&db, "cinema",
           {Id("cnmid"), Str("name"), Str("city"), Str("capacity")});
  AddTable(&db, "festival",
           {Id("fsid"), Str("name"), Str("city"), Str("month")});
  AddTable(&db, "studio", {Id("stid"), Str("name"), Str("city")});
  AddTable(&db, "song",
           {Id("sgid"), Str("title"), Str("artist"), Str("year")});
  AddTable(&db, "trailer",
           {Id("trid"), Id("mid"), Str("url"), Str("duration")});
  AddTable(&db, "poster",
           {Id("psid"), Id("mid"), Str("caption"), Str("artist")});
  AddTable(&db, "quote", {Id("qid"), Id("mid"), Str("line"), Str("speaker")});
  AddTable(&db, "boxoffice",
           {Id("boid"), Id("mid"), Str("gross"), Str("territory")});
  AddTable(&db, "series", {Id("srid"), Str("name"), Str("network")});
  AddTable(&db, "episode",
           {Id("epid"), Id("srid"), Str("title"), Str("number"),
            Str("air_date")});
  AddTable(&db, "character",
           {Id("chid"), Str("name"), Str("description")});
  AddTable(&db, "agent", {Id("agid"), Str("name"), Str("agency"),
                          Str("phone")});

  // --- Link relations ----------------------------------------------------
  AddLink(&db, "direct", {Id("mid"), Id("pid")});
  AddLink(&db, "write", {Id("mid"), Id("pid")});
  AddLink(&db, "act", {Id("mid"), Id("pid"), Str("role")});
  AddLink(&db, "produce", {Id("mid"), Id("cid")});
  AddLink(&db, "filmedin", {Id("mid"), Id("lid")});
  AddLink(&db, "hasgenre", {Id("mid"), Id("gid")});
  AddLink(&db, "moviewon", {Id("aid"), Id("mid")});
  AddLink(&db, "personwon", {Id("aid"), Id("pid")});
  AddLink(&db, "belongsto", {Id("pid"), Id("fid")});
  AddLink(&db, "bornin", {Id("pid"), Id("cnid")});
  AddLink(&db, "spokenin", {Id("mid"), Id("lgid")});
  AddLink(&db, "haskeyword", {Id("mid"), Id("kid")});
  AddLink(&db, "reviewedby", {Id("rvid"), Id("crid")});
  AddLink(&db, "showsin", {Id("mid"), Id("cnmid")});
  AddLink(&db, "shownat", {Id("mid"), Id("fsid")});
  AddLink(&db, "distributedby", {Id("mid"), Id("stid")});
  AddLink(&db, "featuresong", {Id("mid"), Id("sgid")});
  AddLink(&db, "playscharacter", {Id("chid"), Id("pid")});
  AddLink(&db, "representedby", {Id("pid"), Id("agid")});

  // --- Foreign keys -------------------------------------------------------
  AddFk(&db, "review", "mid", "movie", "mid");
  AddFk(&db, "trailer", "mid", "movie", "mid");
  AddFk(&db, "poster", "mid", "movie", "mid");
  AddFk(&db, "quote", "mid", "movie", "mid");
  AddFk(&db, "boxoffice", "mid", "movie", "mid");
  AddFk(&db, "episode", "srid", "series", "srid");
  AddFk(&db, "direct", "mid", "movie", "mid");
  AddFk(&db, "direct", "pid", "person", "pid");
  AddFk(&db, "write", "mid", "movie", "mid");
  AddFk(&db, "write", "pid", "person", "pid");
  AddFk(&db, "act", "mid", "movie", "mid");
  AddFk(&db, "act", "pid", "person", "pid");
  AddFk(&db, "produce", "mid", "movie", "mid");
  AddFk(&db, "produce", "cid", "company", "cid");
  AddFk(&db, "filmedin", "mid", "movie", "mid");
  AddFk(&db, "filmedin", "lid", "location", "lid");
  AddFk(&db, "hasgenre", "mid", "movie", "mid");
  AddFk(&db, "hasgenre", "gid", "genre", "gid");
  AddFk(&db, "moviewon", "aid", "award", "aid");
  AddFk(&db, "moviewon", "mid", "movie", "mid");
  AddFk(&db, "personwon", "aid", "award", "aid");
  AddFk(&db, "personwon", "pid", "person", "pid");
  AddFk(&db, "belongsto", "pid", "person", "pid");
  AddFk(&db, "belongsto", "fid", "family", "fid");
  AddFk(&db, "bornin", "pid", "person", "pid");
  AddFk(&db, "bornin", "cnid", "country", "cnid");
  AddFk(&db, "spokenin", "mid", "movie", "mid");
  AddFk(&db, "spokenin", "lgid", "language", "lgid");
  AddFk(&db, "haskeyword", "mid", "movie", "mid");
  AddFk(&db, "haskeyword", "kid", "keyword", "kid");
  AddFk(&db, "reviewedby", "rvid", "review", "rvid");
  AddFk(&db, "reviewedby", "crid", "critic", "crid");
  AddFk(&db, "showsin", "mid", "movie", "mid");
  AddFk(&db, "showsin", "cnmid", "cinema", "cnmid");
  AddFk(&db, "shownat", "mid", "movie", "mid");
  AddFk(&db, "shownat", "fsid", "festival", "fsid");
  AddFk(&db, "distributedby", "mid", "movie", "mid");
  AddFk(&db, "distributedby", "stid", "studio", "stid");
  AddFk(&db, "featuresong", "mid", "movie", "mid");
  AddFk(&db, "featuresong", "sgid", "song", "sgid");
  AddFk(&db, "playscharacter", "chid", "character", "chid");
  AddFk(&db, "playscharacter", "pid", "person", "pid");
  AddFk(&db, "representedby", "pid", "person", "pid");
  AddFk(&db, "representedby", "agid", "agent", "agid");

  MW_CHECK_EQ(db.num_relations(), 43u)
      << "Yahoo-Movies-like schema must match the paper's 43 relations";
  MW_CHECK_EQ(db.TotalAttributes(), 131u)
      << "Yahoo-Movies-like schema must match the paper's 131 attributes";

  // --- Instance generation -----------------------------------------------
  // People first; their names feed movie loglines.
  std::vector<std::string> person_names(people);
  {
    Relation* rel = db.mutable_relation(db.FindRelation("person"));
    for (size_t p = 0; p < people; ++p) {
      person_names[p] = MakePersonName(&rng);
      // Some bios mention the person's own name, planting director names
      // inside person.bio (deliberate search ambiguity; kept low enough
      // that a few pruning rows can rule the bio mapping out).
      const std::string bio = MakeSentence(
          &rng, 8, rng.Bernoulli(0.35) ? person_names[p] : "");
      rel->AppendUnchecked(
          Row{IdOf(p), Value(person_names[p]), Value(bio),
              Value(std::to_string(rng.UniformInt(1930, 1995))),
              Value(rng.Bernoulli(0.5) ? "male" : "female")});
    }
  }

  std::vector<std::string> movie_titles(movies);
  {
    Relation* rel = db.mutable_relation(db.FindRelation("movie"));
    for (size_t m = 0; m < movies; ++m) {
      movie_titles[m] = MakeMovieTitle(&rng);
      // Many loglines embed the movie's own title — this is what makes
      // L("Avatar") = {movie.title, movie.logline} in the paper's example.
      // The rate balances occurrence ambiguity against prunability: each
      // extra sample row has a ~45% chance of ruling the logline mapping
      // out, giving the paper's ~two-rows-to-converge behaviour.
      std::string embed;
      if (rng.Bernoulli(0.55)) embed = movie_titles[m];
      std::string logline = MakeSentence(&rng, 10, embed);
      if (rng.Bernoulli(0.3)) {
        logline += " starring " + rng.Pick(person_names);
      }
      rel->AppendUnchecked(
          Row{IdOf(m), Value(movie_titles[m]), Value(logline),
              Value(MakeDate(&rng, 1970, 2011)),
              Value(rng.Bernoulli(0.5) ? "PG-13" : "R"),
              Value(std::to_string(rng.UniformInt(80, 190)) + " min"),
              Value(rng.Pick(Countries()))});
    }
  }

  {
    Relation* rel = db.mutable_relation(db.FindRelation("company"));
    for (size_t c = 0; c < companies; ++c) {
      rel->AppendUnchecked(
          Row{IdOf(c), Value(MakeCompanyName(&rng)),
              Value(rng.Pick(Countries())),
              Value(std::to_string(rng.UniformInt(1920, 2005)))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("location"));
    for (size_t l = 0; l < locations; ++l) {
      // Locations name either a city or a country — so a sample like
      // "New Zealand" is found in location.loc AND movie.produced_in.
      const std::string loc =
          rng.Bernoulli(0.35) ? rng.Pick(Countries()) : rng.Pick(Cities());
      rel->AppendUnchecked(
          Row{IdOf(l), Value(loc), Value(rng.Pick(Countries()))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("genre"));
    for (size_t g = 0; g < genres; ++g) {
      rel->AppendUnchecked(Row{IdOf(g), Value(GenreNames()[g]),
                               Value(MakeSentence(&rng, 6))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("award"));
    for (size_t a = 0; a < awards; ++a) {
      rel->AppendUnchecked(
          Row{IdOf(a),
              Value("Best " + rng.Pick(TitleNouns()) + " Award"),
              Value(std::to_string(rng.UniformInt(1980, 2011))),
              Value(rng.Bernoulli(0.5) ? "Feature" : "Short")});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("family"));
    for (size_t f = 0; f < families; ++f) {
      // Some family entries read like full person names (the paper's
      // family.family matched "James Cameron").
      const std::string name = rng.Bernoulli(0.4)
                                   ? MakePersonName(&rng)
                                   : rng.Pick(LastNames()) + " family";
      rel->AppendUnchecked(
          Row{IdOf(f), Value(name), Value(rng.Pick(Countries()))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("country"));
    for (size_t c = 0; c < countries; ++c) {
      const std::string& name = Countries()[c];
      rel->AppendUnchecked(
          Row{IdOf(c), Value(name),
              Value(ToLower(name.substr(0, 2)))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("language"));
    static const char* kLanguages[] = {
        "English", "French", "German", "Spanish", "Italian", "Japanese",
        "Korean", "Hindi", "Mandarin", "Portuguese", "Russian", "Arabic",
        "Swedish", "Dutch", "Maori"};
    for (size_t l = 0; l < languages; ++l) {
      rel->AppendUnchecked(Row{IdOf(l), Value(kLanguages[l]),
                               Value(ToLower(std::string(kLanguages[l])
                                                 .substr(0, 2)))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("keyword"));
    for (size_t k = 0; k < keywords; ++k) {
      rel->AppendUnchecked(Row{IdOf(k), Value(rng.Pick(FillerWords())),
                               Value(rng.Pick(GenreNames()))});
    }
  }
  const size_t reviews = movies * 3 / 2;
  {
    Relation* rel = db.mutable_relation(db.FindRelation("review"));
    for (size_t r = 0; r < reviews; ++r) {
      const size_t m = rng.Index(movies);
      // Half of all reviews quote the movie's title in their text.
      rel->AppendUnchecked(
          Row{IdOf(r), IdOf(m),
              Value(MakeSentence(&rng, 14,
                                 rng.Bernoulli(0.5) ? movie_titles[m] : "")),
              Value(StrFormat("%.1f", 1.0 + rng.UniformDouble() * 9.0)),
              Value("A " + rng.Pick(TitleAdjectives()) + " " +
                    rng.Pick(FillerWords()))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("critic"));
    static const char* kOutlets[] = {"The Gazette", "Daily Reel",
                                     "Cinema Weekly", "The Standard",
                                     "Frame Journal"};
    for (size_t c = 0; c < critics; ++c) {
      rel->AppendUnchecked(Row{IdOf(c), Value(MakePersonName(&rng)),
                               Value(kOutlets[rng.Index(5)])});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("cinema"));
    for (size_t c = 0; c < cinemas; ++c) {
      rel->AppendUnchecked(
          Row{IdOf(c), Value(rng.Pick(TitleNouns()) + " Cinema"),
              Value(rng.Pick(Cities())),
              Value(std::to_string(rng.UniformInt(80, 600)) + " seats")});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("festival"));
    static const char* kMonths[] = {"January", "February", "May", "July",
                                    "September", "October", "November"};
    for (size_t f = 0; f < festivals; ++f) {
      rel->AppendUnchecked(
          Row{IdOf(f), Value(rng.Pick(Cities()) + " Film Festival"),
              Value(rng.Pick(Cities())), Value(kMonths[rng.Index(7)])});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("studio"));
    for (size_t s = 0; s < studios; ++s) {
      rel->AppendUnchecked(Row{IdOf(s), Value(MakeCompanyName(&rng)),
                               Value(rng.Pick(Cities()))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("song"));
    for (size_t s = 0; s < songs; ++s) {
      rel->AppendUnchecked(
          Row{IdOf(s), Value(MakeMovieTitle(&rng)),
              Value(MakePersonName(&rng)),
              Value(std::to_string(rng.UniformInt(1960, 2011)))});
    }
  }
  const size_t trailers = std::max<size_t>(1, movies * 4 / 5);
  {
    Relation* rel = db.mutable_relation(db.FindRelation("trailer"));
    for (size_t t = 0; t < trailers; ++t) {
      const size_t m = rng.Index(movies);
      rel->AppendUnchecked(
          Row{IdOf(t), IdOf(m),
              Value("videos.example.com/t" + std::to_string(t)),
              Value(StrFormat("%d:%02d",
                              static_cast<int>(rng.UniformInt(1, 3)),
                              static_cast<int>(rng.UniformInt(0, 59))))});
    }
  }
  const size_t posters = std::max<size_t>(1, movies * 7 / 10);
  {
    Relation* rel = db.mutable_relation(db.FindRelation("poster"));
    for (size_t p = 0; p < posters; ++p) {
      const size_t m = rng.Index(movies);
      rel->AppendUnchecked(
          Row{IdOf(p), IdOf(m),
              Value(MakeSentence(&rng, 5,
                                 rng.Bernoulli(0.4) ? movie_titles[m] : "")),
              Value(MakePersonName(&rng))});
    }
  }
  const size_t quotes = movies;
  {
    Relation* rel = db.mutable_relation(db.FindRelation("quote"));
    for (size_t q = 0; q < quotes; ++q) {
      const size_t m = rng.Index(movies);
      rel->AppendUnchecked(Row{IdOf(q), IdOf(m),
                               Value(MakeSentence(&rng, 9)),
                               Value(MakePersonName(&rng))});
    }
  }
  const size_t boxoffices = std::max<size_t>(1, movies * 4 / 5);
  {
    Relation* rel = db.mutable_relation(db.FindRelation("boxoffice"));
    for (size_t b = 0; b < boxoffices; ++b) {
      rel->AppendUnchecked(
          Row{IdOf(b), IdOf(rng.Index(movies)),
              Value("$" + std::to_string(rng.UniformInt(1, 900)) + "M"),
              Value(rng.Bernoulli(0.5) ? "Domestic" : "Worldwide")});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("series"));
    static const char* kNetworks[] = {"NBC", "HBO", "BBC", "ABC", "AMC"};
    for (size_t s = 0; s < series; ++s) {
      rel->AppendUnchecked(Row{IdOf(s),
                               Value("The " + rng.Pick(TitleNouns()) +
                                     " Chronicles"),
                               Value(kNetworks[rng.Index(5)])});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("episode"));
    for (size_t e = 0; e < episodes; ++e) {
      rel->AppendUnchecked(
          Row{IdOf(e), IdOf(e / 6), Value(MakeMovieTitle(&rng)),
              Value(StrFormat("S%dE%d",
                              static_cast<int>(rng.UniformInt(1, 5)),
                              static_cast<int>(rng.UniformInt(1, 12)))),
              Value(MakeDate(&rng, 1995, 2011))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("character"));
    for (size_t c = 0; c < characters; ++c) {
      rel->AppendUnchecked(Row{IdOf(c),
                               Value(rng.Bernoulli(0.5)
                                         ? MakePersonName(&rng)
                                         : rng.Pick(FirstNames())),
                               Value(MakeSentence(&rng, 6))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("agent"));
    static const char* kAgencies[] = {"CAA", "WME", "UTA", "Gersh",
                                      "Paradigm"};
    for (size_t a = 0; a < agents; ++a) {
      rel->AppendUnchecked(
          Row{IdOf(a), Value(MakePersonName(&rng)),
              Value(kAgencies[rng.Index(5)]),
              Value(StrFormat("555-%04d",
                              static_cast<int>(rng.UniformInt(0, 9999))))});
    }
  }

  // Link rows. Fan-outs follow the paper's intuition: one or two directors
  // per movie, more writers and many actors, etc.
  auto link = [&](const char* name) {
    return db.mutable_relation(db.FindRelation(name));
  };
  FillLinks(link("direct"), &rng, movies, people, 1, 2);
  FillLinks(link("write"), &rng, movies, people, 1, 3);
  {
    Relation* rel = link("act");
    std::set<std::pair<size_t, size_t>> used;
    for (size_t m = 0; m < movies; ++m) {
      const size_t n = static_cast<size_t>(rng.UniformInt(3, 6));
      for (size_t k = 0; k < n; ++k) {
        const size_t p = rng.Index(people);
        if (!used.insert({m, p}).second) continue;
        rel->AppendUnchecked(Row{IdOf(m), IdOf(p),
                                 Value(rng.Pick(FirstNames()))});
      }
    }
  }
  FillLinks(link("produce"), &rng, movies, companies, 1, 2);
  FillLinks(link("filmedin"), &rng, movies, locations, 1, 2);
  FillLinks(link("hasgenre"), &rng, movies, genres, 1, 2);
  FillLinks(link("moviewon"), &rng, awards, movies, 1, 1);
  FillLinks(link("personwon"), &rng, awards, people, 1, 1);
  FillLinks(link("belongsto"), &rng, people / 2, families, 1, 1);
  FillLinks(link("bornin"), &rng, people, countries, 1, 1);
  FillLinks(link("spokenin"), &rng, movies, languages, 1, 2);
  FillLinks(link("haskeyword"), &rng, movies, keywords, 2, 4);
  FillLinks(link("reviewedby"), &rng, reviews, critics, 1, 1);
  FillLinks(link("showsin"), &rng, movies, cinemas, 1, 2);
  FillLinks(link("shownat"), &rng, movies / 2, festivals, 1, 1);
  FillLinks(link("distributedby"), &rng, movies, studios, 1, 1);
  FillLinks(link("featuresong"), &rng, movies / 2, songs, 1, 1);
  FillLinks(link("playscharacter"), &rng, characters, people, 1, 1);
  FillLinks(link("representedby"), &rng, people * 2 / 5, agents, 1, 1);

  return db;
}

Database MakeImdb(const ImdbConfig& config) {
  Rng rng(config.seed);
  const size_t movies = config.num_movies;
  MW_CHECK_GE(movies, 4u);
  const size_t people =
      config.num_people > 0 ? config.num_people : movies * 2;
  const size_t companies = config.num_companies > 0
                               ? config.num_companies
                               : std::max<size_t>(12, movies / 5);
  const size_t char_names = movies;
  const size_t keywords = 100;

  Database db("imdb");

  AddTable(&db, "movie",
           {Id("mid"), Str("title"), Str("production_year"), Id("kind_id")});
  AddTable(&db, "person", {Id("pid"), Str("name"), Str("gender")});
  AddTable(&db, "company_name",
           {Id("cid"), Str("name"), Str("country_code")});
  AddTable(&db, "cast_info",
           {Id("ciid"), Id("mid"), Id("pid"), Id("role_id"),
            Id("person_role_id")});
  AddTable(&db, "movie_companies",
           {Id("mcid"), Id("mid"), Id("cid"), Str("note")});
  AddTable(&db, "movie_info",
           {Id("miid"), Id("mid"), Id("info_type_id"), Str("info")});
  AddTable(&db, "info_type", {Id("itid"), Str("info")});
  AddTable(&db, "role_type", {Id("rtid"), Str("role")});
  AddTable(&db, "char_name", {Id("chid"), Str("name")});
  AddTable(&db, "aka_name", {Id("anid"), Id("pid"), Str("name")});
  AddTable(&db, "aka_title", {Id("atid"), Id("mid"), Str("title")});
  AddTable(&db, "keyword", {Id("kid"), Str("keyword")});
  AddTable(&db, "movie_keyword", {Id("mkid"), Id("mid"), Id("kid")});
  AddTable(&db, "person_info",
           {Id("piid"), Id("pid"), Id("info_type_id"), Str("info")});
  AddTable(&db, "movie_link",
           {Id("mlid"), Id("mid"), Id("linked_mid"), Id("link_type_id")});
  AddTable(&db, "link_type", {Id("ltid"), Str("link")});
  AddTable(&db, "complete_cast", {Id("ccid"), Id("mid"), Id("subject_id")});
  AddTable(&db, "comp_cast_type", {Id("cctid"), Str("kind")});
  AddTable(&db, "kind_type", {Id("ktid"), Str("kind")});

  AddFk(&db, "movie", "kind_id", "kind_type", "ktid");
  AddFk(&db, "cast_info", "mid", "movie", "mid");
  AddFk(&db, "cast_info", "pid", "person", "pid");
  AddFk(&db, "cast_info", "role_id", "role_type", "rtid");
  AddFk(&db, "cast_info", "person_role_id", "char_name", "chid");
  AddFk(&db, "movie_companies", "mid", "movie", "mid");
  AddFk(&db, "movie_companies", "cid", "company_name", "cid");
  AddFk(&db, "movie_info", "mid", "movie", "mid");
  AddFk(&db, "movie_info", "info_type_id", "info_type", "itid");
  AddFk(&db, "aka_name", "pid", "person", "pid");
  AddFk(&db, "aka_title", "mid", "movie", "mid");
  AddFk(&db, "movie_keyword", "mid", "movie", "mid");
  AddFk(&db, "movie_keyword", "kid", "keyword", "kid");
  AddFk(&db, "person_info", "pid", "person", "pid");
  AddFk(&db, "person_info", "info_type_id", "info_type", "itid");
  AddFk(&db, "movie_link", "mid", "movie", "mid");
  AddFk(&db, "movie_link", "linked_mid", "movie", "mid");
  AddFk(&db, "movie_link", "link_type_id", "link_type", "ltid");
  AddFk(&db, "complete_cast", "mid", "movie", "mid");
  AddFk(&db, "complete_cast", "subject_id", "comp_cast_type", "cctid");

  MW_CHECK_EQ(db.num_relations(), 19u)
      << "IMDb-like schema must match the paper's 19 relations";
  MW_CHECK_EQ(db.TotalAttributes(), 57u)
      << "IMDb-like schema must match the paper's 57 attributes";

  // --- Instance generation -----------------------------------------------
  static const char* kKinds[] = {"movie", "tv series", "tv movie",
                                 "video", "short"};
  {
    Relation* rel = db.mutable_relation(db.FindRelation("kind_type"));
    for (size_t k = 0; k < 5; ++k) {
      rel->AppendUnchecked(Row{IdOf(k), Value(kKinds[k])});
    }
  }
  static const char* kRoles[] = {"actor", "actress", "director",
                                 "producer", "writer", "composer"};
  {
    Relation* rel = db.mutable_relation(db.FindRelation("role_type"));
    for (size_t r = 0; r < 6; ++r) {
      rel->AppendUnchecked(Row{IdOf(r), Value(kRoles[r])});
    }
  }
  static const char* kInfoTypes[] = {"release date", "runtime", "country",
                                     "birth date", "birth place",
                                     "tagline"};
  {
    Relation* rel = db.mutable_relation(db.FindRelation("info_type"));
    for (size_t i = 0; i < 6; ++i) {
      rel->AppendUnchecked(Row{IdOf(i), Value(kInfoTypes[i])});
    }
  }
  static const char* kLinks[] = {"sequel", "remake", "references",
                                 "follows"};
  {
    Relation* rel = db.mutable_relation(db.FindRelation("link_type"));
    for (size_t l = 0; l < 4; ++l) {
      rel->AppendUnchecked(Row{IdOf(l), Value(kLinks[l])});
    }
  }
  static const char* kCastKinds[] = {"cast", "crew", "complete",
                                     "complete+verified"};
  {
    Relation* rel = db.mutable_relation(db.FindRelation("comp_cast_type"));
    for (size_t c = 0; c < 4; ++c) {
      rel->AppendUnchecked(Row{IdOf(c), Value(kCastKinds[c])});
    }
  }

  std::vector<std::string> person_names(people);
  {
    Relation* rel = db.mutable_relation(db.FindRelation("person"));
    for (size_t p = 0; p < people; ++p) {
      person_names[p] = MakePersonName(&rng);
      rel->AppendUnchecked(Row{IdOf(p), Value(person_names[p]),
                               Value(rng.Bernoulli(0.5) ? "m" : "f")});
    }
  }
  std::vector<std::string> movie_titles(movies);
  {
    Relation* rel = db.mutable_relation(db.FindRelation("movie"));
    for (size_t m = 0; m < movies; ++m) {
      movie_titles[m] = MakeMovieTitle(&rng);
      rel->AppendUnchecked(
          Row{IdOf(m), Value(movie_titles[m]),
              Value(std::to_string(rng.UniformInt(1950, 2011))),
              IdOf(rng.Index(5))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("company_name"));
    for (size_t c = 0; c < companies; ++c) {
      rel->AppendUnchecked(
          Row{IdOf(c), Value(MakeCompanyName(&rng)),
              Value(ToLower(rng.Pick(Countries()).substr(0, 2)))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("char_name"));
    for (size_t c = 0; c < char_names; ++c) {
      rel->AppendUnchecked(Row{IdOf(c),
                               Value(rng.Bernoulli(0.5)
                                         ? MakePersonName(&rng)
                                         : rng.Pick(FirstNames()))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("keyword"));
    for (size_t k = 0; k < keywords; ++k) {
      rel->AppendUnchecked(Row{IdOf(k), Value(rng.Pick(FillerWords()))});
    }
  }
  {
    // Every movie gets one director, one producer, and several actors.
    Relation* rel = db.mutable_relation(db.FindRelation("cast_info"));
    size_t ci = 0;
    for (size_t m = 0; m < movies; ++m) {
      auto add = [&](size_t role) {
        const size_t p = rng.Index(people);
        const Value char_ref = rng.Bernoulli(0.5)
                                   ? IdOf(rng.Index(char_names))
                                   : Value::Null();
        rel->AppendUnchecked(
            Row{IdOf(ci++), IdOf(m), IdOf(p), IdOf(role), char_ref});
      };
      add(2);  // director
      add(3);  // producer
      const size_t actors = static_cast<size_t>(rng.UniformInt(2, 5));
      for (size_t a = 0; a < actors; ++a) add(rng.Bernoulli(0.5) ? 0 : 1);
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("movie_companies"));
    size_t mc = 0;
    for (size_t m = 0; m < movies; ++m) {
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 2));
      for (size_t k = 0; k < n; ++k) {
        // Real IMDb notes carry role and year, e.g. "(production) (2004)".
        const std::string note =
            std::string(rng.Bernoulli(0.5) ? "(production)"
                                           : "(distribution)") +
            " (" + std::to_string(rng.UniformInt(1950, 2011)) + ")";
        rel->AppendUnchecked(Row{IdOf(mc++), IdOf(m),
                                 IdOf(rng.Index(companies)), Value(note)});
      }
    }
  }
  {
    // movie_info: every movie gets a release date, plus runtime/country.
    Relation* rel = db.mutable_relation(db.FindRelation("movie_info"));
    size_t mi = 0;
    for (size_t m = 0; m < movies; ++m) {
      rel->AppendUnchecked(
          Row{IdOf(mi++), IdOf(m), IdOf(0),
              Value(MakeDate(&rng, 1950, 2011))});
      rel->AppendUnchecked(
          Row{IdOf(mi++), IdOf(m), IdOf(1),
              Value(std::to_string(rng.UniformInt(80, 190)) + " min")});
      if (rng.Bernoulli(0.6)) {
        rel->AppendUnchecked(Row{IdOf(mi++), IdOf(m), IdOf(2),
                                 Value(rng.Pick(Countries()))});
      }
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("aka_name"));
    size_t an = 0;
    for (size_t p = 0; p < people; ++p) {
      if (!rng.Bernoulli(0.25)) continue;
      rel->AppendUnchecked(Row{IdOf(an++), IdOf(p),
                               Value(rng.Pick(FirstNames()) + " " +
                                     rng.Pick(LastNames()))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("aka_title"));
    size_t at = 0;
    for (size_t m = 0; m < movies; ++m) {
      if (!rng.Bernoulli(0.3)) continue;
      rel->AppendUnchecked(Row{IdOf(at++), IdOf(m),
                               Value(MakeMovieTitle(&rng))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("movie_keyword"));
    size_t mk = 0;
    for (size_t m = 0; m < movies; ++m) {
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 4));
      std::set<size_t> used;
      for (size_t k = 0; k < n; ++k) {
        const size_t kw = rng.Index(keywords);
        if (!used.insert(kw).second) continue;
        rel->AppendUnchecked(Row{IdOf(mk++), IdOf(m), IdOf(kw)});
      }
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("person_info"));
    size_t pi = 0;
    for (size_t p = 0; p < people; ++p) {
      rel->AppendUnchecked(Row{IdOf(pi++), IdOf(p), IdOf(3),
                               Value(MakeDate(&rng, 1930, 1995))});
      if (rng.Bernoulli(0.5)) {
        rel->AppendUnchecked(Row{IdOf(pi++), IdOf(p), IdOf(4),
                                 Value(rng.Pick(Cities()))});
      }
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("movie_link"));
    size_t ml = 0;
    for (size_t m = 0; m < movies; ++m) {
      if (!rng.Bernoulli(0.2)) continue;
      rel->AppendUnchecked(Row{IdOf(ml++), IdOf(m), IdOf(rng.Index(movies)),
                               IdOf(rng.Index(4))});
    }
  }
  {
    Relation* rel = db.mutable_relation(db.FindRelation("complete_cast"));
    size_t cc = 0;
    for (size_t m = 0; m < movies; ++m) {
      if (!rng.Bernoulli(0.4)) continue;
      rel->AppendUnchecked(Row{IdOf(cc++), IdOf(m), IdOf(rng.Index(4))});
    }
  }

  return db;
}

}  // namespace mweaver::datagen
