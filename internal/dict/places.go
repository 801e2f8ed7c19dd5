// Package dict provides the correlated value dictionaries used by DATAGEN.
//
// The paper (§2.1) takes attribute values from DBpedia and realises
// correlation by keeping the *shape* of the (skewed) value distribution
// fixed while changing the *order* of dictionary values with the
// correlation parameter (e.g. person.location). This package reproduces
// that mechanism with embedded synthetic vocabularies: every correlated
// dictionary exposes an ordered view per correlation parameter, and the
// generator samples an index from the shared skewed distribution.
//
// This is the substitution for the DBpedia source data: the correlation
// machinery is identical; only the raw strings are synthetic. The German
// and Chinese first-name heads match the paper's Table 2 so the experiment
// reproduces verbatim.
package dict

// Country is a dimension entity: persons are assigned a country (their
// "location"), which drives name, university, company, language and
// interest correlations (Table 1).
type Country struct {
	ID         int
	Name       string
	Weight     float64 // population weight for skewed assignment
	GridX      uint8   // 16x16 world-grid coordinate for Z-ordering
	GridY      uint8
	Languages  []string
	CityStart  int // index of first city in Cities
	CityCount  int
	UniStart   int // index of first university in Universities
	UniCount   int
	CompStart  int // index of first company in Companies
	CompCount  int
	NameRotate int // rotation applied to the generic name pool
}

// City is a dimension entity within a country.
type City struct {
	ID      int
	Name    string
	Country int
	GridX   uint8
	GridY   uint8
}

// University is a dimension entity located in a city.
type University struct {
	ID      int
	Name    string
	City    int
	Country int
}

// Company is a dimension entity located in a country.
type Company struct {
	ID      int
	Name    string
	Country int
}

// countrySpec seeds the country table. Weights roughly follow a Zipf over
// population rank, matching the skewed person-location assignment.
var countrySpecs = []struct {
	name   string
	weight float64
	gx, gy uint8
	langs  []string
}{
	{"China", 19.0, 12, 6, []string{"zh"}},
	{"India", 17.5, 10, 7, []string{"hi", "en"}},
	{"United_States", 4.5, 3, 5, []string{"en"}},
	{"Indonesia", 3.5, 13, 8, []string{"id"}},
	{"Brazil", 2.8, 5, 9, []string{"pt"}},
	{"Pakistan", 2.6, 10, 6, []string{"ur", "en"}},
	{"Germany", 1.1, 8, 4, []string{"de"}},
	{"Nigeria", 2.5, 8, 8, []string{"en"}},
	{"Russia", 1.9, 11, 3, []string{"ru"}},
	{"Japan", 1.7, 14, 5, []string{"ja"}},
	{"Mexico", 1.6, 2, 6, []string{"es"}},
	{"Philippines", 1.4, 14, 7, []string{"tl", "en"}},
	{"Vietnam", 1.3, 13, 7, []string{"vi"}},
	{"France", 0.9, 7, 4, []string{"fr"}},
	{"United_Kingdom", 0.9, 7, 3, []string{"en"}},
	{"Italy", 0.8, 8, 5, []string{"it"}},
	{"Spain", 0.6, 7, 5, []string{"es"}},
	{"Netherlands", 0.23, 7, 4, []string{"nl", "en"}},
	{"Poland", 0.5, 9, 4, []string{"pl"}},
	{"Canada", 0.5, 3, 3, []string{"en", "fr"}},
	{"Australia", 0.33, 14, 10, []string{"en"}},
	{"Sweden", 0.13, 8, 2, []string{"sv", "en"}},
	{"Switzerland", 0.11, 8, 4, []string{"de", "fr", "it"}},
	{"Argentina", 0.6, 4, 10, []string{"es"}},
	{"Egypt", 1.3, 9, 6, []string{"ar"}},
}

// cityStems name cities per country as Stem_k; three to five per country,
// deterministic from the country index.
var cityStems = []string{"Port", "New", "Old", "East", "West", "North", "South", "Lake", "Mount", "Fort"}

var (
	// Countries is the country dimension table, ordered by descending weight
	// (index = popularity rank, so SkewedIndex(0..) picks populous countries).
	Countries []Country
	// Cities is the city dimension table.
	Cities []City
	// Universities is the university dimension table.
	Universities []University
	// Companies is the company dimension table.
	Companies []Company
)

func init() {
	for i, s := range countrySpecs {
		c := Country{
			ID: i, Name: s.name, Weight: s.weight,
			GridX: s.gx, GridY: s.gy, Languages: s.langs,
			NameRotate: (i*7 + 3) % 97,
		}
		// Cities: 3-5 per country.
		nCities := 3 + i%3
		c.CityStart = len(Cities)
		c.CityCount = nCities
		for j := 0; j < nCities; j++ {
			Cities = append(Cities, City{
				ID:      len(Cities),
				Name:    cityStems[(i+j)%len(cityStems)] + "_" + s.name,
				Country: i,
				GridX:   s.gx,
				GridY:   s.gy,
			})
		}
		// Universities: 2-4 per country, each in one of its cities.
		nUnis := 2 + (i*3)%3
		c.UniStart = len(Universities)
		c.UniCount = nUnis
		for j := 0; j < nUnis; j++ {
			Universities = append(Universities, University{
				ID:      len(Universities),
				Name:    "University_of_" + Cities[c.CityStart+j%nCities].Name,
				City:    c.CityStart + j%nCities,
				Country: i,
			})
		}
		// Companies: 3-6 per country.
		nComp := 3 + (i*5)%4
		c.CompStart = len(Companies)
		c.CompCount = nComp
		for j := 0; j < nComp; j++ {
			Companies = append(Companies, Company{
				ID:      len(Companies),
				Name:    s.name + "_Corp_" + string(rune('A'+j)),
				Country: i,
			})
		}
		Countries = append(Countries, c)
	}
}

// CountryByName returns the index of the named country, or -1.
func CountryByName(name string) int {
	for i := range Countries {
		if Countries[i].Name == name {
			return i
		}
	}
	return -1
}
