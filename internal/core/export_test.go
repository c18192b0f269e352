package core

// The external test package shares the golden-file helpers.
var (
	OrgGoldenPath = orgGoldenPath
	GoldenSection = goldenSection
	CheckDigest   = checkDigest
	AppendBits    = appendBits
	StripHostWork = stripHostWork
)
