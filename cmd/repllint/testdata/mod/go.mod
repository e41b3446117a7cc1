module fixturemod

go 1.22
